"""Time and memory of every stage of the chain, in one process.

    PYTHONPATH=src python3 tools/stage_probe.py --n-ads 100000 --workdir DIR

Run from the root of a checkout. The `synth` stage writes n ads into DIR
(seed --seed, n_components = n / 12.5, the other synth settings at their
defaults), and then every stage of `pipeline.ALL_CHAIN` runs with
force=True on one shared StageContext, as `adgraph all` does. The last
line of stdout is one JSON object: each stage's wall seconds and the
process's resident set right after it, the chain's total seconds, and the
process's peak RSS (`ru_maxrss`, which covers synth too). Artifacts stay
in DIR. Resident sets are read from /proc/self/statm, so on a system
without it they are null.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# as the CLI does: kernels uses no BLAS, so no OpenBLAS thread should spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from adgraph.config import load_config  # noqa: E402
from adgraph.pipeline import ALL_CHAIN, STAGES, StageContext, run_stage  # noqa: E402

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float | None:
    """The resident set of this process now, in MB."""
    try:
        with open("/proc/self/statm") as fh:
            return round(int(fh.read().split()[1]) * _PAGE_MB, 1)
    except OSError:
        return None


def probe(n_ads: int, workdir: str, seed: int = 0, threads: int = 1) -> dict:
    cfg = load_config(
        cli_values={
            "workdir": workdir,
            "seed": seed,
            "threads": threads,
            "synth.n_ads": n_ads,
            "synth.n_components": max(1, round(n_ads / 12.5)),
        }
    )
    start = time.perf_counter()
    run_stage("synth", cfg, force=True)
    stages = {"synth": {"s": round(time.perf_counter() - start, 3), "rss_mb": rss_mb()}}
    ctx = StageContext(cfg, force=True)
    chain = time.perf_counter()
    for i, name in enumerate(ALL_CHAIN):
        start = time.perf_counter()
        run_stage(name, cfg, force=True, ctx=ctx)
        stages[name] = {"s": round(time.perf_counter() - start, 3), "rss_mb": rss_mb()}
        # as run_all: a parse no later stage reads would only hold memory
        later = {art for s in ALL_CHAIN[i + 1 :] for art in STAGES[s].inputs}
        ctx.parsed = {key: obj for key, obj in ctx.parsed.items() if key[0] in later}
    return {
        "n_ads": n_ads,
        "seed": seed,
        "threads": threads,
        "stages": stages,
        "chain_s": round(time.perf_counter() - chain, 3),
        # kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-ads", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.n_ads, args.workdir, args.seed, args.threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
