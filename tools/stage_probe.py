"""Time, memory and collector work of every stage of the chain, in one process.

    PYTHONPATH=src python3 tools/stage_probe.py --n-ads 100000 --workdir DIR

Run from the root of a checkout. The `synth` stage writes n ads into DIR
(seed --seed, n_components = n / 12.5, the other synth settings at their
defaults), and then `pipeline.run_all` runs the chain with force=True, as
`adgraph all --force` does. The last line of stdout is one JSON object:
each stage's wall seconds, the process's resident set right after it,
the collections the cyclic collector ran in it per generation (young,
middle, full) and the young generation's count when it started (a young
collection runs once that count of net allocations passes the chain's
threshold, `pipeline._CHAIN_GC_THRESHOLD[0]`); the chain's total seconds
and collections; and the process's peak RSS (`ru_maxrss`, which covers
synth too). Artifacts stay in DIR. Resident sets are read from
/proc/self/statm, so on a system without it they are null.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

# as the CLI does: kernels uses no BLAS, so no OpenBLAS thread should spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from adgraph import pipeline  # noqa: E402
from adgraph.config import load_config  # noqa: E402

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float | None:
    """The resident set of this process now, in MB."""
    try:
        with open("/proc/self/statm") as fh:
            return round(int(fh.read().split()[1]) * _PAGE_MB, 1)
    except OSError:
        return None


def collections() -> list[int]:
    """How many collections each generation has run in this process."""
    return [gen["collections"] for gen in gc.get_stats()]


def since(before: list[int]) -> list[int]:
    return [now - then for now, then in zip(collections(), before)]


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
    stages = {}
    run_stage = pipeline.run_stage

    def timed(name, *args, **kwargs):
        young = gc.get_count()[0]
        before = collections()
        start = time.perf_counter()
        result = run_stage(name, *args, **kwargs)
        stages[name] = {
            "s": round(time.perf_counter() - start, 3),
            "rss_mb": rss_mb(),
            "collections": since(before),
            "young_at_start": young,
        }
        return result

    # run_all looks run_stage up in its module on every stage
    pipeline.run_stage = timed
    try:
        timed("synth", cfg, force=True)
        before = collections()
        start = time.perf_counter()
        pipeline.run_all(cfg, force=True)
        chain_s = round(time.perf_counter() - start, 3)
        chain_collections = since(before)
    finally:
        pipeline.run_stage = run_stage
    return {
        "n_ads": n_ads,
        "seed": seed,
        "threads": threads,
        "stages": stages,
        "chain_s": chain_s,
        "collections": chain_collections,
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
