"""Smoke test of tools/stage_probe.py, run as its docstring says."""

import json
import os
import subprocess
import sys
from pathlib import Path

from adgraph.pipeline import _CHAIN_GC_THRESHOLD, ALL_CHAIN

ROOT = Path(__file__).resolve().parent.parent


def test_probe_reports_every_stage_of_the_chain(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "tools/stage_probe.py", "--n-ads", "300", "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["n_ads"] == 300 and report["threads"] == 1
    assert list(report["stages"]) == ["synth", *ALL_CHAIN]
    for stage in report["stages"].values():
        assert stage["s"] >= 0 and stage["rss_mb"] > 0
        assert len(stage["collections"]) == 3 and min(stage["collections"]) >= 0
    # the count a stage of the chain starts at stays under the chain's threshold
    for name in ALL_CHAIN:
        assert 0 <= report["stages"][name]["young_at_start"] <= _CHAIN_GC_THRESHOLD[0]
    # collections per generation: the chain's are at least its stages', and
    # under the chain's thresholds none of them is a full collection
    for gen in range(3):
        assert report["collections"][gen] >= sum(report["stages"][name]["collections"][gen] for name in ALL_CHAIN)
    assert report["collections"][2] == 0
    assert report["chain_s"] >= sum(report["stages"][name]["s"] for name in ALL_CHAIN) - 0.01
    assert report["peak_rss_mb"] >= max(stage["rss_mb"] for stage in report["stages"].values()) - 1.0
    # the synth stage wrote 300 ads, and the chain ran to its last outputs
    assert len((tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()) == 300
    assert (tmp_path / "oad_pairs.jsonl").stat().st_size > 0
    assert all((tmp_path / "manifests" / f"{name}.json").is_file() for name in ALL_CHAIN)
