"""Benchmark of the `adgraph all` chain on synthetic corpora.

    python3 perfbench/run.py --workload reposted --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout holding `src/adgraph`; nothing needs
installing. One call runs one workload:

1. Set-up: `adgraph synth` writes the corpus and its planted truth from
   `--seed` (for `relabel`, the base chain runs on it too). Set-up runs
   three times (once with `--trace 1`) and `setup_s` is the median.
2. Timed runs: for `--seconds`, `adgraph all --threads 1` runs again and
   again, each time in a fresh process on a fresh workdir, and its
   outputs are checked against the planted truth (see checks.py). One
   chain plus its checks is one operation; a failed check fails it.
3. With `--trace 1`, three pairs of chains follow, each an untraced
   chain and then one under the span tracer (see tracing.py), and the
   per-layer metrics are reported in place of the end-to-end ones.

The last line of stdout is the result as one JSON object. Workdirs live
under perfbench/out/ and are removed at the end; the span files of a
traced run are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
TRACE_PAIRS = 3  # untraced and traced chains run back to back with --trace 1

# Both relabel thresholds change labels on planted components. 690 miles
# sits in a 13.7-mile gap between pairwise distances of the bundled
# gazetteer's cities, so no planted span (always such a distance) lies
# near it; phone counts are whole numbers compared with >=.
RELABEL_DISTANCE_MILES = 690.0
RELABEL_PHONE_COUNT = 4
BASE_DISTANCE_MILES = 300.0
BASE_PHONE_COUNT = 3
RELABEL_OVERRIDES = (
    f"label.distance_threshold_miles={RELABEL_DISTANCE_MILES}",
    f"label.phone_count_threshold={RELABEL_PHONE_COUNT}",
)

# the files `adgraph all` writes, keyed as in pipeline.ARTIFACTS; the
# keys name the artifact.<key>_mb metrics that BENCHMARK.json fixes
ARTIFACT_FILES = {
    "records": "records.jsonl",
    "normalized": "normalized.jsonl",
    "rejects": "rejects.jsonl",
    "clusters": "clusters.jsonl",
    "identifiers": "identifiers.jsonl",
    "annotation_rejects": "annotation_rejects.jsonl",
    "graph": "graph.json",
    "stats": "component_stats.csv",
    "split": "split.json",
    "split_report": "split_report.json",
    "oad_pairs": "oad_pairs.jsonl",
    "htrp_labels": "htrp_labels.jsonl",
    "htrp_variant_labels": "htrp_labels_variant.jsonl",
    "compare_report": "compare_report.json",
    "graphml": "graph.graphml",
    "dot": "graph.dot",
    "manifests": "manifests",
}


@dataclass(frozen=True)
class Workload:
    synth: dict  # SynthSpec fields other than seed
    relabel: bool = False  # set-up runs the base chain; timed runs add RELABEL_OVERRIDES


WORKLOADS = {
    # criterion-10 shape: synth defaults, components at 8% of the ads;
    # most ads are reposts, so edit-distance verification carries dedup
    "reposted": Workload(
        {"n_ads": 4000, "dup_rate": 0.9, "n_components": 320, "obfuscation_rate": 0.5}
    ),
    # no reposts, every phone obfuscated, components a fifth of the ads:
    # verification idles, minhash/banding/filters carry dedup, and the
    # graph-side stages see one node per ad instead of one per ten
    "distinct": Workload(
        {"n_ads": 3000, "dup_rate": 0.0, "n_components": 600, "obfuscation_rate": 1.0}
    ),
    # a distinct corpus whose base chain ran in set-up; only the HTRP
    # rule thresholds change, which exercises manifests and staleness
    "relabel": Workload(
        {"n_ads": 2000, "dup_rate": 0.0, "n_components": 400, "obfuscation_rate": 1.0},
        relabel=True,
    ),
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class ChainRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def adgraph_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "adgraph.cli", *args]


def run_process(cmd: list[str], log: Path) -> ChainRun:
    """Run cmd to completion; wall time, CPU and peak RSS of that process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChainRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _checked(run: ChainRun, log: Path, what: str) -> ChainRun:
    if run.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchmarkError(f"{what} exited with {run.returncode}:\n{tail}")
    return run


def tree_mb(path: Path) -> float:
    if path.is_file():
        return path.stat().st_size / 2**20
    if not path.exists():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


@dataclass
class Inputs:
    corpus: Path
    truth: Path
    base: Path | None  # relabel: workdir of the base chain


def chain_args(workdir: Path, corpus: Path, relabel: bool) -> list[str]:
    args = ["all", "--quiet", "--threads", "1", "--workdir", str(workdir), "--corpus", str(corpus)]
    for expr in RELABEL_OVERRIDES if relabel else ():
        args += ["--set", expr]
    return args


def synth_args(wl: Workload, seed: int, workdir: Path) -> list[str]:
    s = wl.synth
    return [
        "synth", "--quiet", "--workdir", str(workdir), "--seed", str(seed),
        "--n-ads", str(s["n_ads"]), "--dup-rate", str(s["dup_rate"]),
        "--n-components", str(s["n_components"]),
        "--obfuscation-rate", str(s["obfuscation_rate"]),
    ]


def set_up(wl: Workload, seed: int, rundir: Path, repeats: int) -> tuple[list[float], Inputs]:
    """Build the workload's inputs `repeats` times; keep the last build."""
    times = []
    for rep in range(repeats):
        inputs = rundir / f"inputs{rep}"
        base = rundir / f"base{rep}" if wl.relabel else None
        log = rundir / "setup.log"
        start = time.perf_counter()
        _checked(run_process(adgraph_cmd(*synth_args(wl, seed, inputs)), log), log, "synth")
        if base is not None:
            cmd = adgraph_cmd(*chain_args(base, inputs / "corpus.jsonl", False))
            _checked(run_process(cmd, log), log, "base chain")
        times.append(time.perf_counter() - start)
        if rep + 1 < repeats:
            shutil.rmtree(inputs)
            if base is not None:
                shutil.rmtree(base)
    return times, Inputs(inputs / "corpus.jsonl", inputs / "ground_truth.json", base)


def expectation(wl: Workload, inputs: Inputs) -> checks.Expectation:
    with open(inputs.truth, encoding="utf-8") as fh:
        truth = json.load(fh)
    return checks.Expectation(
        truth=truth,
        texts=checks.read_corpus_texts(inputs.corpus),
        distance_threshold_miles=RELABEL_DISTANCE_MILES if wl.relabel else BASE_DISTANCE_MILES,
        phone_count_threshold=RELABEL_PHONE_COUNT if wl.relabel else BASE_PHONE_COUNT,
        upstream_digests=checks.upstream_digests(inputs.base) if inputs.base else None,
    )


def fresh_workdir(inputs: Inputs, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    if inputs.base is not None:
        shutil.copytree(inputs.base, workdir)
    else:
        workdir.mkdir(parents=True)


def verify(workdir: Path, exp: checks.Expectation, sample_seed: str) -> list[str]:
    try:
        return checks.check_outputs(workdir, exp, sample_seed)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


@dataclass
class Operation:
    run: ChainRun
    artifact_mb: float
    problems: list[str]


def chain_operation(
    launcher: list[str], wl: Workload, inputs: Inputs, exp: checks.Expectation,
    workdir: Path, log: Path, sample_seed: str,
) -> Operation:
    """One chain in a fresh process on a fresh workdir, then its checks."""
    fresh_workdir(inputs, workdir)
    run = run_process([*launcher, *chain_args(workdir, inputs.corpus, wl.relabel)], log)
    if run.returncode != 0:
        problems = [f"adgraph all exited with {run.returncode}"]
    else:
        problems = verify(workdir, exp, sample_seed)
    return Operation(run, tree_mb(workdir), problems)


def timed_runs(
    wl: Workload, inputs: Inputs, exp: checks.Expectation, seed: int, seconds: float, rundir: Path
) -> list[Operation]:
    ops: list[Operation] = []
    workdir, log = rundir / "chain", rundir / "chain.log"
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(chain_operation(adgraph_cmd(), wl, inputs, exp, workdir, log, f"{seed}:{len(ops)}"))
    shutil.rmtree(workdir, ignore_errors=True)
    return ops


def traced_runs(
    wl: Workload, inputs: Inputs, exp: checks.Expectation, seed: int, rundir: Path, spans: Path
) -> tuple[list[Operation], dict[str, tuple[float, str]]]:
    """TRACE_PAIRS pairs of an untraced and a traced chain, then one traced synth.

    The two chains of a pair run back to back, so the median of their
    wall-time differences measures the tracer's cost with little of the
    machine's drift between the timed operations and the traced ones.
    Per-layer metrics are medians over the traced chains. The span files
    of the last traced chain and of the synth are written to `spans`
    with -chain.json and -synth.json appended.
    """
    workdir, log = rundir / "traced", rundir / "traced.log"
    chain_spans = spans.with_name(spans.name + "-chain.json")
    synth_spans = spans.with_name(spans.name + "-synth.json")
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer = [sys.executable, str(HERE / "tracing.py"), "--spans"]
    ops, span_lists = [], []
    for i in range(TRACE_PAIRS):
        ops.append(chain_operation(adgraph_cmd(), wl, inputs, exp, workdir, log, f"{seed}:plain{i}"))
        traced = chain_operation(
            [*tracer, str(chain_spans), "--"], wl, inputs, exp, workdir, log, f"{seed}:traced{i}"
        )
        _checked(traced.run, log, "traced chain")
        ops.append(traced)
        span_lists.append(json.loads(chain_spans.read_text(encoding="utf-8")))

    synth_dir = rundir / "traced_synth"
    cmd = [*tracer, str(synth_spans), "--", *synth_args(wl, seed, synth_dir)]
    _checked(run_process(cmd, log), log, "traced synth")
    if checks.file_digest(synth_dir / "corpus.jsonl") != checks.file_digest(inputs.corpus):
        ops[-1].problems.append("traced synth wrote a different corpus than set-up")
    synth = json.loads(synth_spans.read_text(encoding="utf-8"))
    layers = [tracing.layer_metrics(chain, synth) for chain in span_lists]
    metrics = {
        name: (statistics.median(m[name][0] for m in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    for key, name in ARTIFACT_FILES.items():
        metrics[f"artifact.{key}_mb"] = (tree_mb(workdir / name), "MB")
    plain, traced = ops[0::2], ops[1::2]
    metrics["trace.chain_s"] = (statistics.median(t.run.wall_s for t in traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t.run.wall_s - p.run.wall_s for p, t in zip(plain, traced)), "s"
    )
    return ops, metrics


def result(ops: list[Operation], metrics: dict[str, tuple[float, str]]) -> dict:
    """The result object the command prints; problems go to stderr."""
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {i}: {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, rundir: Path, spans: Path
) -> dict:
    """Run one workload in rundir; the result object the command prints."""
    rundir.mkdir(parents=True)
    setup_times, inputs = set_up(wl, seed, rundir, 1 if trace else SETUP_REPEATS)
    exp = expectation(wl, inputs)
    ops = timed_runs(wl, inputs, exp, seed, seconds, rundir)
    if trace:
        traced_ops, metrics = traced_runs(wl, inputs, exp, seed, rundir, spans)
        ops += traced_ops
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "chain_s": (statistics.median(op.run.wall_s for op in ops), "s"),
            "cpu_s": (statistics.median(op.run.cpu_s for op in ops), "s"),
            "peak_rss_mb": (statistics.median(op.run.peak_rss_mb for op in ops), "MB"),
            "artifact_mb": (statistics.median(op.artifact_mb for op in ops), "MB"),
        }
    return result(ops, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adgraph" / "cli.py").is_file():
        print(f"adgraph sources not found under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running chain is killed
    # and waited for and the run directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    rundir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), rundir,
            OUT / f"spans-{args.workload}-{args.seed}",
        )
    except BenchmarkError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
