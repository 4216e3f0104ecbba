"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads reposted distinct relabel --seeds 101-110

For every workload, run.py runs once per seed, one run after another,
each for BENCHMARK.json's `run_seconds`.
Each result line is appended to perfbench/out/sweep-<workload>.jsonl,
and a table gives every metric's median, first and third quartile
(`statistics.quantiles(values, n=4)`) and spread, the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results: list[dict]) -> list[str]:
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    lines = [f"  runs {len(results)}, operations failed {failed} of {attempted}"]
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        lines.append(
            f"  {name:36s} {median:12.6g} {first['unit']:6s} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(HERE / "out" / f"sweep-{workload}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
            results.append(result)
        print(f"{workload} (seeds {args.seeds[0]}-{args.seeds[-1]}, {seconds} s runs)")
        print("\n".join(summarize(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
