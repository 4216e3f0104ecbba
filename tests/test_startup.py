"""Start-up guard: numpy loads only in the stages that compute with it,
ElementTree not at all, and the CLI starts no BLAS worker threads. A cold
chain runs no full collection, and the program, which freezes its heap
before exit, writes what the library calls write.

Each check runs in a fresh interpreter, because this process has numpy
loaded already and its own collector history, and reads which modules
that interpreter ended with or what its collector did.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adgraph.analysis import render_report

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules perfbench's tracer finds in sys.modules after importing
# adgraph.cli, so each must load with it
TRACED = ("corpus", "emoji", "dedup", "extract", "graph", "label", "analysis", "synth", "pipeline")

BASE = [
    "--quiet",
    "--set", "synth.n_ads=120",
    "--set", "synth.n_components=10",
    "--set", "label.pairs_per_class=25",
]
RELABEL = ["--set", "label.distance_threshold_miles=690", "--set", "label.phone_count_threshold=4"]


def state_after(*commands: list[str], report: str, env: dict[str, str] | None = None):
    """The JSON value of the expression `report` in a fresh interpreter
    once cli.main has run each command. `report` may read `stats_before`,
    gc.get_stats() from before the first command."""
    script = (
        "import gc, json, os, sys\n"
        "from adgraph import cli\n"
        "stats_before = gc.get_stats()\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"print(json.dumps({report}))\n"
    )
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(*commands: list[str]) -> set[str]:
    """sys.modules of a fresh interpreter once cli.main has run each command."""
    return set(state_after(*commands, report="sorted(sys.modules)"))


@pytest.fixture(scope="module")
def base_chain(tmp_path_factory):
    """A workdir after a cold synth + all, and the modules that chain loaded."""
    workdir = str(tmp_path_factory.mktemp("startup") / "w")
    loaded = modules_after(["synth", "--workdir", workdir, *BASE], ["all", "--workdir", workdir, *BASE])
    return workdir, loaded


def test_importing_the_cli_loads_every_traced_module_and_no_numpy():
    loaded = modules_after()
    assert {f"adgraph.{m}" for m in TRACED} <= loaded
    assert "numpy" not in loaded
    assert "concurrent.futures.process" not in loaded
    # export_graphml formats its lines itself
    assert not {m for m in loaded if m.startswith("xml.etree")}


def test_synth_loads_no_numpy(tmp_path):
    assert "numpy" not in modules_after(["synth", "--workdir", str(tmp_path / "w"), *BASE])


def test_a_cold_chain_loads_numpy(base_chain):
    _, loaded = base_chain
    assert "numpy" in loaded
    assert "adgraph.kernels" in loaded
    assert not {m for m in loaded if m.startswith("xml.etree")}


def test_relabel_and_up_to_date_reruns_load_no_numpy(base_chain):
    workdir, _ = base_chain
    manifests = Path(workdir) / "manifests"
    before = {p.name: p.read_bytes() for p in manifests.iterdir()}
    relabel = ["all", "--workdir", workdir, *BASE, *RELABEL]
    # the second run finds every stage up to date
    assert "numpy" not in modules_after(relabel, relabel)
    after = {p.name: p.read_bytes() for p in manifests.iterdir()}
    assert {name for name in before if before[name] != after[name]} == {
        "label-htrp.json",
        "compare.json",
    }


FULL_COLLECTIONS = 'gc.get_stats()[2]["collections"] - stats_before[2]["collections"]'


def workdir_digests(workdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


# perfbench's relabel shape. On BASE's 120 ads the collector's default
# thresholds run no full collection either; on these 2,000 they run three.
GC_BASE = [
    "--quiet",
    "--set", "synth.n_ads=2000",
    "--set", "synth.n_components=400",
    "--set", "synth.dup_rate=0",
    "--set", "synth.obfuscation_rate=1",
]


def test_a_cold_chain_runs_no_full_collection_and_the_program_writes_the_same(tmp_path):
    inproc = tmp_path / "inproc"
    commands = [[cmd, "--workdir", str(inproc), *GC_BASE] for cmd in ("synth", "all")]
    assert state_after(*commands, report=FULL_COLLECTIONS) == 0
    # the program freezes its heap before it exits; it still prints the
    # whole report to a pipe and writes what the library calls wrote
    program = tmp_path / "program"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for cmd in ("synth", "all"):
        proc = subprocess.run(
            [sys.executable, "-m", "adgraph.cli", cmd, "--workdir", str(program), *GC_BASE[1:]],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    report = json.loads((program / "compare_report.json").read_text(encoding="utf-8"))
    assert proc.stdout == render_report(report) + "\n"
    assert workdir_digests(program) == workdir_digests(inproc)


def dedup_commands(workdir: str) -> list[list[str]]:
    return [[stage, "--workdir", workdir, *BASE] for stage in ("synth", "ingest", "dedup")]


THREADS = '{"threads": len(os.listdir("/proc/self/task")), "numpy": "numpy" in sys.modules, "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}'

linux_tasks = pytest.mark.skipif(
    sys.platform != "linux" or not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task"
)


@linux_tasks
def test_dedup_leaves_one_os_thread(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    state = state_after(*dedup_commands(str(tmp_path / "w")), report=THREADS, env=env)
    assert state == {"threads": 1, "numpy": True, "openblas": "1"}


@linux_tasks
def test_a_blas_thread_count_already_set_wins(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    state = state_after(*dedup_commands(str(tmp_path / "w")), report=THREADS, env=env)
    assert state["numpy"] and state["openblas"] == "2"
