import csv
import dataclasses
import gc
import hashlib
import json
import logging
import os
import re
import shutil
from collections import Counter
from datetime import datetime
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import adgraph
from adgraph import cli, corpus, extract, pipeline, synth
from adgraph.config import DEFAULTS, config_hash, load_config
from adgraph.corpus import CSV_COLUMNS, build_original_text, read_jsonl, to_row
from adgraph.dedup import DuplicateCluster
from adgraph.errors import PipelineError
from adgraph.graph import RelatednessGraph
from adgraph.label import LabeledAd, Split
from adgraph.pipeline import ALL_CHAIN, ARTIFACTS, PRODUCER, run_all, run_stage

from conftest import corpus_row, write_corpus

SYNTH_ARGS = [
    "synth.n_ads=150",
    "synth.n_components=12",
    "synth.dup_rate=0.5",
    "label.pairs_per_class=40",
]


def make_cfg(workdir, extra=()):
    return load_config(overrides=SYNTH_ARGS + list(extra), cli_values={"workdir": str(workdir)})


def artifact_bytes(workdir):
    out = {}
    for p in sorted(Path(workdir).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(workdir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    cfg = make_cfg(workdir)
    run_stage("synth", cfg)
    results = run_all(cfg)
    return workdir, cfg, results


class TestFullChain:
    def test_all_stages_ran(self, full_run):
        _, _, results = full_run
        assert [r["stage"] for r in results] == list(ALL_CHAIN)
        assert all(r["ran"] for r in results)

    def test_all_artifacts_exist(self, full_run):
        workdir, _, _ = full_run
        for name in ARTIFACTS.values():
            assert (workdir / name).exists(), name

    def test_manifest_shape(self, full_run):
        workdir, cfg, _ = full_run
        man = json.loads((workdir / "manifests" / "dedup.json").read_text())
        assert set(man) == {"stage", "version", "config_hash", "inputs", "outputs"}
        assert man["stage"] == "dedup"
        assert man["config_hash"] == config_hash(cfg.raw, ("seed", "dedup"))
        assert set(man["inputs"]) == {"records", "normalized"}
        assert set(man["outputs"]) == {"clusters"}
        recorded = man["outputs"]["clusters"]
        actual = hashlib.sha256((workdir / "clusters.jsonl").read_bytes()).hexdigest()
        assert recorded == actual

    def test_rerun_is_fresh_noop(self, full_run):
        workdir, cfg, _ = full_run
        before = artifact_bytes(workdir)
        results = run_all(cfg)
        assert not any(r["ran"] for r in results)
        assert artifact_bytes(workdir) == before

    def test_compare_report_written(self, full_run):
        workdir, _, _ = full_run
        report = json.loads((workdir / "compare_report.json").read_text())
        assert {"n_ads", "n_strata", "flips", "wilcoxon", "strata"} <= set(report)


class TestDeterminism:
    def test_byte_identical_across_workdirs_and_threads(self, tmp_path):
        runs = {}
        for name, extra in (
            ("one", []),
            ("two", []),
            ("threaded", ["threads=2"]),
        ):
            workdir = tmp_path / name
            cfg = make_cfg(workdir, extra)
            run_stage("synth", cfg)
            run_all(cfg)
            runs[name] = artifact_bytes(workdir)
        assert runs["one"] == runs["two"]
        assert runs["one"] == runs["threaded"]


# sha256 of every file synth + run_all writes for SYNTH_ARGS. A change that
# should leave outputs alone (a speed-up, a refactor) must leave these
# alone; one that means to change an artifact updates the digest and says
# why.
# normalized.jsonl and the manifests that hash it changed when
# normalized.jsonl dropped original_text, which extract rebuilds from the
# record. manifests/compare.json changed when compare stopped hashing
# label.feature_scope and analysis.variant.pair_sim_threshold, which its
# relabeling of label-htrp's features never reads.
PINNED_DIGESTS = {
    "annotation_rejects.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "clusters.jsonl": "4d7c0145ad1ec28bb7ca008588674d4824aee8aadc07bbd08fbb100df5ea615b",
    "compare_report.json": "13ce4269f39ea8be9989ccaea8f080f864b424a7b2be421720aa30c8e346479d",
    "component_stats.csv": "a27a8d1e0695eb6e2cb9951e57525d1a3eeb66f83d24cac94cfcddc2a6216fd5",
    "corpus.jsonl": "678c6a05f277325803bad9540e4e7ad284a76e4f7c91c545eca1ad9513d6c019",
    "graph.dot": "a4c97149d5e60b0ec6f102d2ebf49e10aa80ead8d31d800f0055b60cbf4e92b9",
    "graph.graphml": "acd2579def624c83d4330453b484b9b896924613870218f1543030718021e4b3",
    "graph.json": "d1ea8235bd7c8b6e7f8f41eca0cdb5137fd4041b9752f120d4ddb85defe3f862",
    "ground_truth.json": "15781eceba7c9d225d7a5379110dbfe6129183f16854505acec35608ff56138f",
    "htrp_labels.jsonl": "fb9d88a9dd5c36a0a46dc08bed4e191138a762f6c2b40569f6053c459adc70dd",
    "htrp_labels_variant.jsonl": "2beb94b533bde53cbe3190cacef3ba880445d9fdc7c8fb1b8f5796d78378bc59",
    "identifiers.jsonl": "aa1ca7e8ace8c9edf0a46387779e5aeae7c618570833af928d155d832b7f862a",
    "manifests/compare.json": "f10030386c2ad3857e90854992e67934edaf7df6b4d9d9799a60d032edd6467e",
    "manifests/dedup.json": "8d69848df5024b7ea96e8ac4b4fa60a3d24cb611b90a55834b5cd64b1d55cc93",
    "manifests/export.json": "c439b742bd7d4c6c14a1aa527cb4e66803d405af59fdb4611806cf2dc1794ea4",
    "manifests/extract.json": "0d0de11763760d58124639ff099c1eb933e3558aa963d8802aa53f03797b8903",
    "manifests/graph.json": "cf925e630bb6b696f556c5389de6e315d3ead0a1838d6028b1b1abc97a33c291",
    "manifests/ingest.json": "9b8adf385e77cc5cca27dfaba9c33a491c8885723a82cdfe33b0b49372ed2133",
    "manifests/label-htrp.json": "46037e852a296bbedcd98dd8a1446b85e1c1ca386dc3befe49a88f53eb6b8004",
    "manifests/label-oad.json": "23b7d7c130590057a8e5f5edfb0f9a3dea681e9365d46ee24014377c497f1656",
    "manifests/split.json": "b6250083b329cb6af33a56dae0c510187f71a81fe96591f255caf1a695c93f20",
    "manifests/stats.json": "bfadb6d1dbc746937c50a4862cc5bffbf57e38e4225cdf54bfb5514531d05df0",
    "manifests/synth.json": "16d2b02de342131b0b5437ca03f163d28c335882ae9111c7faab220083864b63",
    "normalized.jsonl": "3d47f775ba1a898951607979feb59ae78c38a6b3864f40b4f5f7e3a9931a663b",
    "oad_pairs.jsonl": "ff1a5b0508de03e998dc3c922af3a651bf800d42de3b450f85962c853d39b468",
    "records.jsonl": "678c6a05f277325803bad9540e4e7ad284a76e4f7c91c545eca1ad9513d6c019",
    "rejects.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "split.json": "3ae7de7641b2914e2d7f2149e8681fd664e99ba1910c9f60f84d5a6cf3d5ea9a",
    "split_report.json": "0a68fe94ecdcca98e49bd102a44ec545f1c6aaafb856c771ea12755cc4b0576f",
}


class TestSameBytesOut:
    def test_every_file_matches_its_pinned_digest(self, full_run):
        workdir, _, _ = full_run
        assert artifact_bytes(workdir) == PINNED_DIGESTS


class TestStaleness:
    @pytest.fixture()
    def prepared(self, tmp_path):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        run_stage("ingest", cfg)
        return cfg

    def test_missing_artifact_names_producer(self, tmp_path):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        with pytest.raises(PipelineError, match="run the 'ingest' stage first"):
            run_stage("dedup", cfg)

    def test_edited_artifact_detected(self, prepared):
        cfg = prepared
        records = cfg.workdir / "records.jsonl"
        records.write_bytes(records.read_bytes() + b"\n")
        with pytest.raises(PipelineError, match="stale or edited.*rerun 'ingest'"):
            run_stage("dedup", cfg)

    def test_missing_manifest_detected(self, prepared):
        cfg = prepared
        (cfg.workdir / "manifests" / "ingest.json").unlink()
        with pytest.raises(PipelineError, match="no manifest"):
            run_stage("dedup", cfg)

    @pytest.mark.parametrize(
        "content", ["[]", '"x"', '{"outputs": []}', '{"outputs": {}, "inputs": 1}', b'\xff\xfe{"outputs": {}}']
    )
    def test_malformed_producer_manifest_is_no_manifest(self, prepared, content):
        path = prepared.workdir / "manifests" / "ingest.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        with pytest.raises(PipelineError, match="no manifest from stage 'ingest'"):
            run_stage("dedup", prepared)

    @pytest.mark.parametrize("broken", ["[]", '"x"', "outputs as a list", "inputs as a list"])
    def test_malformed_own_manifest_reruns_the_stage(self, prepared, broken):
        assert run_stage("dedup", prepared)["ran"]
        path = prepared.workdir / "manifests" / "dedup.json"
        man = json.loads(path.read_text(encoding="utf-8"))
        if broken.endswith("as a list"):
            # the right names in the wrong shape
            key = broken.split()[0]
            man[key] = sorted(man[key])
            content = json.dumps(man)
        else:
            content = broken
        path.write_text(content, encoding="utf-8")
        assert run_stage("dedup", prepared)["ran"]
        assert not run_stage("dedup", prepared)["ran"]

    def test_force_bypasses_staleness(self, prepared):
        cfg = prepared
        (cfg.workdir / "manifests" / "ingest.json").unlink()
        result = run_stage("dedup", cfg, force=True)
        assert result["ran"]
        assert (cfg.workdir / "clusters.jsonl").exists()

    def test_config_change_defeats_fresh_skip(self, prepared):
        cfg = prepared
        assert run_stage("dedup", cfg)["ran"]
        assert not run_stage("dedup", cfg)["ran"]
        changed = load_config(
            overrides=SYNTH_ARGS + ["dedup.dup_threshold=0.95"],
            cli_values={"workdir": str(cfg.workdir)},
        )
        assert run_stage("dedup", changed)["ran"]

    def test_unknown_stage(self, prepared):
        with pytest.raises(PipelineError, match="unknown stage"):
            run_stage("compile", prepared)

    def test_no_corpus_configured(self, tmp_path):
        cfg = load_config(cli_values={"workdir": str(tmp_path / "empty")})
        with pytest.raises(PipelineError, match="no corpus configured"):
            run_stage("ingest", cfg)

    def test_corpus_fallback_is_logged_once(self, tmp_path, caplog):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        with caplog.at_level(logging.INFO, logger="adgraph"):
            assert run_stage("ingest", cfg)["ran"]
        fallback = [r.getMessage() for r in caplog.records if "not set" in r.getMessage()]
        assert fallback == [f"corpus.path not set, using {cfg.workdir / 'corpus.jsonl'}"]


class TestExportOptions:
    @pytest.fixture()
    def graph_ready(self, tmp_path):
        cfg = make_cfg(tmp_path / "w", ["stages.compare=false", "stages.export=false"])
        run_stage("synth", cfg)
        run_all(cfg)
        return tmp_path / "w"

    def test_dot_only(self, graph_ready):
        cfg = load_config(
            overrides=SYNTH_ARGS + ["export.format=dot"],
            cli_values={"workdir": str(graph_ready)},
        )
        run_stage("export", cfg)
        assert (graph_ready / "graph.dot").exists()
        assert not (graph_ready / "graph.graphml").exists()

    def test_graphml_only(self, graph_ready):
        pytest.importorskip("networkx")
        cfg = load_config(
            overrides=SYNTH_ARGS + ["export.format=graphml"],
            cli_values={"workdir": str(graph_ready)},
        )
        run_stage("export", cfg)
        assert (graph_ready / "graph.graphml").exists()
        assert not (graph_ready / "graph.dot").exists()

    def test_format_change_removes_the_file_no_longer_asked_for(self, graph_ready):
        def export(fmt):
            cfg = load_config(
                overrides=SYNTH_ARGS + [f"export.format={fmt}"],
                cli_values={"workdir": str(graph_ready)},
            )
            assert run_stage("export", cfg)["ran"]
            man = json.loads((graph_ready / "manifests" / "export.json").read_text())
            on_disk = {a for a in ("graphml", "dot") if (graph_ready / ARTIFACTS[a]).exists()}
            assert set(man["outputs"]) == on_disk
            return on_disk

        assert export("both") == {"graphml", "dot"}
        assert export("dot") == {"dot"}
        assert export("graphml") == {"graphml"}

    def test_component_filter(self, graph_ready):
        graph = json.loads((graph_ready / "graph.json").read_text())
        cid = int(min(graph["components"], key=int))
        cfg = load_config(
            overrides=SYNTH_ARGS + ["export.format=dot", f"export.component={cid}"],
            cli_values={"workdir": str(graph_ready)},
        )
        run_stage("export", cfg)
        text = (graph_ready / "graph.dot").read_text()
        members = set(graph["components"][str(cid)])
        mentioned = {m for m in members if f'"{m}"' in text}
        assert mentioned == members
        other = next(c for c in graph["components"] if int(c) != cid)
        stranger = graph["components"][other][0]
        assert f'"{stranger}"' not in text


class TestStageToggles:
    def test_disabled_stages_skipped(self, tmp_path):
        cfg = make_cfg(tmp_path / "w", ["stages.compare=false", "stages.export=false"])
        run_stage("synth", cfg)
        results = run_all(cfg)
        names = [r["stage"] for r in results]
        assert "compare" not in names and "export" not in names
        assert not (tmp_path / "w" / "compare_report.json").exists()
        assert not (tmp_path / "w" / "graph.dot").exists()

    @pytest.mark.parametrize("stage", ["compare", "export"])
    def test_disabling_a_stage_removes_its_earlier_outputs(self, tmp_path, stage):
        # once upstream changes they would describe a graph that is gone
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        run_all(cfg)
        stale = [tmp_path / "w" / ARTIFACTS[a] for a in pipeline.STAGES[stage].outputs]
        stale.append(pipeline.manifest_path(tmp_path / "w", stage))
        assert all(p.exists() for p in stale)
        run_all(make_cfg(tmp_path / "w", [f"stages.{stage}=false"]))
        assert [p for p in stale if p.exists()] == []


class TestExtractOncePerText:
    TEXT = "reach me at 212 x 555 x 0100 or kay@example.net"

    @pytest.fixture()
    def ingested(self, tmp_path):
        rows = [
            corpus_row("a1", self.TEXT),
            corpus_row("a2", self.TEXT),
            corpus_row("a3", self.TEXT, declared_phone="2125550100"),  # other key
            corpus_row("a4", "call 718 555 0199 now"),
            corpus_row("a5", "call 718 555 0199 now"),
            corpus_row("a6", "CALL 718 555 0199 now"),  # same norm_text, other original
        ]
        path = write_corpus(tmp_path / "corpus.jsonl", rows)
        # only a1 is annotated, with the phone the rules cannot chain
        # across " x "; a2 shares a1's key and so its identifier list
        start = self.TEXT.index("212")
        ann = {"ad_id": "a1", "spans": [{"start": start, "end": start + 16, "label": "phone"}]}
        (tmp_path / "ann.jsonl").write_text(json.dumps(ann) + "\n")
        cfg = make_cfg(tmp_path / "w", [f"corpus.path={path}", f"corpus.annotations={tmp_path / 'ann.jsonl'}"])
        run_stage("ingest", cfg)
        return cfg

    @staticmethod
    def keys_by_ad(workdir) -> dict[str, tuple]:
        """Each ad's extract_identifiers arguments, from the ingest artifacts."""
        norm_text = {row["ad_id"]: row["norm_text"] for row in read_jsonl(workdir / "normalized.jsonl")}
        return {
            row["ad_id"]: (
                row["declared_phone"],
                build_original_text(row["title"], row["description"]),
                norm_text[row["ad_id"]],
            )
            for row in read_jsonl(workdir / "records.jsonl")
        }

    def test_one_call_per_distinct_key(self, ingested, monkeypatch):
        keys = []
        original = extract.extract_identifiers

        def counted(*key):
            keys.append(key)
            return original(*key)

        monkeypatch.setattr(extract, "extract_identifiers", counted)
        run_stage("extract", ingested)
        want = set(self.keys_by_ad(ingested.workdir).values())
        assert len(keys) == len(want) == 4 and set(keys) == want

    def test_rows_match_per_ad_extraction_plus_own_annotation(self, ingested):
        run_stage("extract", ingested)
        got: dict[str, list[dict]] = {}
        for row in read_jsonl(ingested.workdir / "identifiers.jsonl"):
            got.setdefault(row.pop("ad_id"), []).append(row)
        start = self.TEXT.index("212")
        annotated = {"kind": "phone", "raw": "212 x 555 x 0100", "canonical": "2125550100",
                     "start": start, "end": start + 16}
        assert annotated in got["a1"]
        assert [r["kind"] for r in got["a2"]] == ["email"]
        got["a1"].remove(annotated)
        per_ad = {
            ad_id: [to_row(i) for i in extract.extract_identifiers(*key)]
            for ad_id, key in self.keys_by_ad(ingested.workdir).items()
        }
        assert got == {ad: rows for ad, rows in per_ad.items() if rows}


class TestOneContextPerChain:
    def test_run_all_parses_each_artifact_at_most_once(self, tmp_path, monkeypatch):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        parses: Counter[str] = Counter()

        def counted(parse):
            def wrapper(path):
                parses[Path(path).name] += 1
                return parse(path)
            return wrapper

        for art, parse in pipeline.PARSERS.items():
            monkeypatch.setitem(pipeline.PARSERS, art, counted(parse))
        assert all(r["ran"] for r in run_all(cfg))
        # every artifact a stage reads was handed over by its writer
        assert parses == {}

    def test_stage_by_stage_writes_what_run_all_writes(self, full_run, tmp_path):
        # a stage that mutated a parse shared through run_all's context
        # would change what a later stage writes there, and only there
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        for name in ALL_CHAIN:
            assert run_stage(name, cfg)["ran"]
        assert artifact_bytes(tmp_path / "w") == artifact_bytes(full_run[0])


class TestCollectorLeftAsFound:
    """Stages run under raised collector thresholds; a library caller's
    interpreter is given back as it was found, on failure too."""

    @pytest.fixture()
    def sentinel(self):
        saved = gc.get_threshold()
        gc.set_threshold(1234, 5, 6)
        try:
            yield
        finally:
            gc.set_threshold(*saved)

    @staticmethod
    def settings():
        return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()

    def test_run_all_run_stage_and_the_cli_restore_the_callers_settings(self, sentinel, tmp_path, monkeypatch):
        before = self.settings()
        assert before[0] == (1234, 5, 6)
        seen = set()

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.add(gc.get_threshold())
                return fn(*args, **kwargs)
            return wrapper

        # the thresholds run_all calls each stage under, and a stage works under
        monkeypatch.setattr(pipeline, "run_stage", recording(pipeline.run_stage))
        monkeypatch.setattr(pipeline, "_check_inputs", recording(pipeline._check_inputs))
        cfg = make_cfg(tmp_path / "w")
        assert run_stage("synth", cfg)["ran"]
        assert self.settings() == before
        assert all(r["ran"] for r in run_all(cfg))
        assert self.settings() == before
        assert seen == {pipeline._CHAIN_GC_THRESHOLD}
        argv = ["all", "--workdir", str(cfg.workdir), "--quiet", "--force", *(f"--set={s}" for s in SYNTH_ARGS)]
        assert cli.main(argv) == 0
        assert self.settings() == before

    def test_a_failing_stage_restores_the_callers_settings(self, sentinel, tmp_path):
        before = self.settings()
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        with pytest.raises(PipelineError, match="run the 'ingest' stage first"):
            run_stage("dedup", cfg)
        assert self.settings() == before
        assert cli.main(["dedup", "--workdir", str(cfg.workdir), "--quiet"]) == 1
        assert self.settings() == before


# small corpora of perfbench's three workload shapes; relabel reruns a
# finished distinct chain under new HTRP thresholds
HANDOFF_SHAPES = {
    "reposted": (
        ["synth.n_ads=400", "synth.dup_rate=0.9", "synth.n_components=32", "synth.obfuscation_rate=0.5"],
        None,
    ),
    "distinct": (
        ["synth.n_ads=300", "synth.dup_rate=0.0", "synth.n_components=60", "synth.obfuscation_rate=1.0"],
        None,
    ),
    "relabel": (
        ["synth.n_ads=200", "synth.dup_rate=0.0", "synth.n_components=40", "synth.obfuscation_rate=1.0"],
        ["label.distance_threshold_miles=690", "label.phone_count_threshold=4"],
    ),
}


class TestHandOff:
    @pytest.fixture()
    def written(self, monkeypatch) -> list[tuple[str, object]]:
        """Every (artifact, object) a stage writes through StageContext.write."""
        log = []
        write = pipeline.StageContext.write

        def recording(ctx, artifact, obj):
            log.append((artifact, obj))
            write(ctx, artifact, obj)

        monkeypatch.setattr(pipeline.StageContext, "write", recording)
        return log

    @pytest.mark.parametrize("shape", sorted(HANDOFF_SHAPES))
    def test_every_handed_object_equals_the_parse_of_its_file(self, shape, tmp_path, written):
        synth, relabel = HANDOFF_SHAPES[shape]
        cfg = make_cfg(tmp_path / "w", synth)
        run_stage("synth", cfg)
        run_all(cfg)
        kept = sorted(art for art, _ in written if art in pipeline.PARSERS)
        assert kept == ["clusters", "graph", "htrp_labels", "identifiers", "normalized", "records", "split"]
        if relabel is not None:
            cfg = make_cfg(tmp_path / "w", synth + relabel)
            rerun = len(written)
            run_all(cfg)
            assert [art for art, _ in written[rerun:]] == ["htrp_labels", "htrp_variant_labels", "compare_report"]
        # no stage writes around the table
        files = {
            p.relative_to(cfg.workdir).as_posix()
            for p in cfg.workdir.rglob("*")
            if p.is_file() and p.parent.name != "manifests"
        }
        assert files == {ARTIFACTS[art] for art, _ in written}
        # the last object written as each artifact stands for its file
        for art, obj in dict(written).items():
            if art in pipeline.PARSERS:
                assert repr(obj) == repr(pipeline.PARSERS[art](cfg.workdir / ARTIFACTS[art])), art

    def test_quarantined_graph_equals_the_parse_of_its_file(self, tmp_path, written):
        cfg = make_cfg(tmp_path / "w", ["graph.quarantine_cap=2"])
        run_stage("synth", cfg)
        run_all(cfg)
        graph = dict(written)["graph"]
        assert graph.quarantined
        assert repr(graph) == repr(pipeline.PARSERS["graph"](cfg.workdir / ARTIFACTS["graph"]))

    def test_annotated_identifiers_equal_the_parse_of_their_file(self, tmp_path, written):
        ads = [
            corpus_row("a1", "call 212 555 0100 now"),
            corpus_row("a2", "nothing to see"),
            corpus_row("a3", "nothing here either"),
        ]
        corpus_path = write_corpus(tmp_path / "corpus.jsonl", ads)
        # merged with what extraction found on a1; rejected on a2
        notes = tmp_path / "annotations.jsonl"
        notes.write_text(
            '{"ad_id": "a1", "spans": [{"start": 0, "end": 17, "label": "phone"}]}\n'
            '{"ad_id": "a2", "spans": [{"start": 0, "end": 7, "label": "email"}]}\n',
            encoding="utf-8",
        )
        cfg = make_cfg(
            tmp_path / "w", [f"corpus.path={corpus_path}", f"corpus.annotations={notes}"]
        )
        run_all(cfg)
        parsed = pipeline.PARSERS["identifiers"](cfg.workdir / ARTIFACTS["identifiers"])
        assert {found.ad_id for found in parsed} == {"a1"}
        assert len(read_jsonl(cfg.workdir / ARTIFACTS["annotation_rejects"])) == 1
        assert repr(dict(written)["identifiers"]) == repr(parsed)

    def test_ingest_normalizes_each_distinct_text_once(self, tmp_path, written):
        ads = [
            corpus_row("a1", "Call 555 123 0147 \U0001F352"),
            corpus_row("a2", "Call 555 123 0147 \U0001F352", declared_phone="5551230147"),
            corpus_row("a3", "", title="Title Only"),
            corpus_row("a4", "something else"),
            corpus_row("a5", "Call 555 123 0147 \U0001F352"),
            # the same normalized text from a different original
            corpus_row("a6", "SOMETHING  ELSE"),
            corpus_row("a7", "Only", title="Title"),
        ]
        cfg = make_cfg(tmp_path / "w", [f"corpus.path={write_corpus(tmp_path / 'c.jsonl', ads)}"])
        run_stage("ingest", cfg)
        handed = dict(written)
        normalized = handed["normalized"]
        assert [vars(n) for n in normalized] == [vars(corpus.normalize(r)) for r in handed["records"]]
        reposts = [normalized[i].norm_text for i in (0, 1, 4)]
        assert reposts[0] is reposts[1] is reposts[2]
        assert normalized[3].norm_text == normalized[5].norm_text

    def test_a_stage_that_writes_around_the_table_fails(self, tmp_path, monkeypatch):
        def around(ctx):
            records, truth = synth.generate_corpus(ctx.cfg.synth_spec())
            corpus.write_jsonl(ctx.path("synth_corpus"), map(to_row, records))
            ctx.write("ground_truth", truth)

        monkeypatch.setitem(pipeline.STAGES, "synth", dataclasses.replace(pipeline.STAGES["synth"], fn=around))
        with pytest.raises(PipelineError, match="stage 'synth' did not write corpus.jsonl"):
            run_stage("synth", make_cfg(tmp_path / "w"))

    def test_a_handed_object_is_served_only_for_the_bytes_it_was_written_as(self, tmp_path):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        ctx = pipeline.StageContext(cfg)
        run_stage("ingest", cfg, ctx=ctx)
        path = ctx.path("normalized")
        ctx.inputs = {"normalized": pipeline._sha256_file(path)}
        assert ctx.read("normalized")[0].norm_text != "edited"
        rows = read_jsonl(path)
        rows[0]["norm_text"] = "edited"
        corpus.write_jsonl(path, rows)
        ctx.inputs = {"normalized": pipeline._sha256_file(path)}
        assert ctx.read("normalized")[0].norm_text == "edited"


class TestDigestOncePerChain:
    @pytest.fixture()
    def hashed(self, monkeypatch) -> Counter[str]:
        """How often each file is hashed."""
        calls: Counter[str] = Counter()
        sha256_file = pipeline._sha256_file

        def counted(path):
            calls[Path(path).relative_to(path.parent.parent).as_posix()] += 1
            return sha256_file(path)

        monkeypatch.setattr(pipeline, "_sha256_file", counted)
        return calls

    def test_a_chain_hashes_each_file_once(self, tmp_path, hashed):
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        for rerun in ([], ["label.distance_threshold_miles=690", "label.phone_count_threshold=4"]):
            hashed.clear()
            run_all(make_cfg(tmp_path / "w", rerun))
            assert hashed and set(hashed.values()) == {1}, hashed

    @staticmethod
    def append_a_line(path: Path) -> None:
        path.write_bytes(path.read_bytes() + b"\n")

    @staticmethod
    def same_size_new_inode_same_mtime(path: Path) -> None:
        st = path.stat()
        tmp = path.with_name("edited")
        tmp.write_bytes(path.read_bytes().replace(b"a", b"A", 1))
        os.utime(tmp, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(tmp, path)

    @pytest.mark.parametrize("edit", ["append_a_line", "same_size_new_inode_same_mtime"])
    def test_an_artifact_edited_between_two_stages_is_stale(self, tmp_path, monkeypatch, edit):
        # clusters.jsonl is hashed when dedup writes it and again when graph reads it
        cfg = make_cfg(tmp_path / "w")
        run_stage("synth", cfg)
        stage = pipeline.run_stage

        def edit_after_dedup(name, *args, **kwargs):
            result = stage(name, *args, **kwargs)
            if name == "dedup":
                getattr(self, edit)(cfg.workdir / ARTIFACTS["clusters"])
            return result

        monkeypatch.setattr(pipeline, "run_stage", edit_after_dedup)
        with pytest.raises(PipelineError, match="clusters.jsonl does not match .*stale or edited.*rerun 'dedup'"):
            run_all(cfg)


# the row class of each artifact a stage parses
ROW_CLASSES = {
    "records": corpus.AdRecord,
    "normalized": corpus.NormalizedAd,
    "clusters": DuplicateCluster,
    "identifiers": extract.AdIdentifier,
    "graph": RelatednessGraph,
    "split": Split,
    "htrp_labels": LabeledAd,
}

# a JSON value of each type
SAMPLES = (None, True, 7, 1.5, "x", [], {})
DELETE, COPY = object(), object()


def takes(hint, value) -> bool:
    """Whether a value of a field typed hint may be value, judged by its
    own JSON type alone (a Literal by the value itself)."""
    if isinstance(hint, UnionType):
        return any(takes(h, value) for h in get_args(hint))
    if get_origin(hint) is Literal:
        return value in get_args(hint)
    if hint is float:
        return type(value) in (int, float)
    if hint is datetime:
        return type(value) is str
    if dataclasses.is_dataclass(hint):
        return type(value) is dict
    return type(value) is (get_origin(hint) or hint)


def stored_fields(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f) for f in dataclasses.fields(cls) if f.init}


def positions(hint, path=()):
    """(path, hint) of every value under hint; an int step stands for a
    list's index or a dict's key by position."""
    yield path, hint
    if dataclasses.is_dataclass(hint):
        for name, (field_hint, _) in stored_fields(hint).items():
            yield from positions(field_hint, path + (name,))
    elif get_origin(hint) in (list, dict):
        yield from positions(get_args(hint)[-1], path + (0,))


def required(cls) -> list[str]:
    return [
        name
        for name, (_, f) in stored_fields(cls).items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]


@st.composite
def corruptions(draw):
    """(artifact, path, value) that the artifact's schema forbids: a value of
    a wrong JSON type, a missing required key, or a key it does not have."""
    artifact = draw(st.sampled_from(sorted(ROW_CLASSES)))
    cls = ROW_CLASSES[artifact]
    rows = ARTIFACTS[artifact].endswith(".jsonl")
    path, hint = draw(st.sampled_from(list(positions(cls, (0,) if rows else ()))))
    path = tuple(draw(st.integers(0, 99)) if isinstance(step, int) else step for step in path)
    kinds = ["type"]
    if dataclasses.is_dataclass(hint):
        kinds += ["extra", "missing"] if required(hint) else ["extra"]
    elif get_origin(hint) is dict and get_args(hint)[0] is int:
        kinds += ["extra"]
    kind = draw(st.sampled_from(kinds))
    if kind == "type":
        return artifact, path, draw(st.sampled_from([v for v in SAMPLES if not takes(hint, v)]))
    if kind == "missing":
        return artifact, path + (draw(st.sampled_from(required(hint))),), DELETE
    if dataclasses.is_dataclass(hint):
        derived = [f.name for f in dataclasses.fields(hint) if not f.init]
        return artifact, path + (draw(st.sampled_from(["extra", *derived])),), 1
    # an int key written as other text
    return artifact, path + (draw(st.sampled_from(["x", "1.0", "01"])),), COPY


def corrupt(doc, path, value):
    """doc with value at path (deleted when it is DELETE, a copy of one of
    the dict's values when it is COPY)."""
    if not path:
        return value
    root = doc
    *steps, last = path

    def key(target, step):
        if not isinstance(step, int):
            return step
        assume(len(target) > 0)
        return step % len(target) if isinstance(target, list) else list(target)[step % len(target)]

    for step in steps:
        doc = doc[key(doc, step)]
    if value is DELETE:
        del doc[last]
    elif value is COPY:
        assume(len(doc) > 0)
        doc[last] = next(iter(doc.values()))
    else:
        doc[key(doc, last)] = value
    return root


class TestCorruptArtifacts:
    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        cfg = make_cfg(tmp_path_factory.mktemp("corrupt") / "w")
        run_stage("synth", cfg)
        run_all(cfg)
        return cfg

    def test_every_parsed_artifact_has_a_row_class(self):
        assert set(ROW_CLASSES) == set(pipeline.PARSERS)

    @given(corruption=corruptions())
    # a feature that is text, an ad_id that is a number, and a string
    # where a list of places belongs
    @example(corruption=("htrp_labels", (0, "features", "max_span_miles"), "x"))
    @example(corruption=("identifiers", (0, "ad_id"), 1))
    @example(corruption=("graph", ("node_locations", 0), "Miami"))
    @settings(max_examples=300, deadline=None)
    def test_a_value_the_schema_forbids_is_one_error_line(self, finished, corruption):
        artifact, path, value = corruption
        file = finished.workdir / ARTIFACTS[artifact]
        original = file.read_text(encoding="utf-8")
        rows = file.suffix == ".jsonl"
        doc = [json.loads(line) for line in original.splitlines()] if rows else json.loads(original)
        doc = corrupt(doc, path, value)
        try:
            file.write_text("".join(json.dumps(r) + "\n" for r in doc) if rows else json.dumps(doc), encoding="utf-8")
            # the first stage to read it, which reads its inputs before it writes
            reader = next(s for s in ALL_CHAIN if artifact in pipeline.STAGES[s].inputs)
            with pytest.raises(PipelineError) as exc:
                run_stage(reader, finished, force=True)
        finally:
            file.write_text(original, encoding="utf-8")
        message = str(exc.value)
        assert "\n" not in message
        assert f"artifact {file.name} cannot be read" in message
        assert f"rerun '{PRODUCER[artifact]}' with --force" in message


class TestAtomicWrites:
    def test_writer_failing_mid_file_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = make_cfg(tmp_path / "w")
        for stage in ("synth", "ingest", "dedup"):
            run_stage(stage, cfg)
        before = artifact_bytes(cfg.workdir)
        changed = make_cfg(tmp_path / "w", ["dedup.dup_threshold=0.8"])
        written = 0

        def to_row_then_fail(obj):
            nonlocal written
            written += 1
            if written > 3:
                raise OSError("disk full")
            return to_row(obj)

        monkeypatch.setattr(pipeline, "to_row", to_row_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run_stage("dedup", changed)
        monkeypatch.undo()
        assert written > 3  # the failure came after rows were written
        # old clusters.jsonl and manifest intact, no temp file left behind
        assert artifact_bytes(cfg.workdir) == before
        assert not run_stage("dedup", cfg)["ran"]
        assert run_stage("dedup", changed)["ran"]
        man = json.loads((cfg.workdir / "manifests" / "dedup.json").read_text())
        assert man["config_hash"] == pipeline.STAGES["dedup"].config_hash(changed)


def leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# One changed value per config leaf; {files} is a directory of input files
# that the keyed_base fixture writes. Every rerun runs in a copy of the base
# workdir at another path, so "workdir" needs no override of its own.
PERTURBED = {
    "seed": ["seed=1"],
    "workdir": [],
    "threads": ["threads=2"],
    "corpus.path": ["corpus.path={files}/corpus.jsonl"],
    "corpus.format": ["corpus.format=csv", "corpus.path={files}/corpus.csv"],
    "corpus.annotations": ["corpus.annotations={files}/annotations.jsonl"],
    "gazetteer": ["gazetteer={files}/gazetteer.csv"],
    "dedup.shingle_k": ["dedup.shingle_k=4"],
    "dedup.num_signatures": ["dedup.num_signatures=64"],
    "dedup.bands": ["dedup.bands=16"],
    "dedup.dup_threshold": ["dedup.dup_threshold=0.8"],
    "graph.quarantine_cap": ["graph.quarantine_cap=3"],
    "label.pair_sim_threshold": ["label.pair_sim_threshold=0.3"],
    "label.distance_threshold_miles": ["label.distance_threshold_miles=690"],
    "label.phone_count_threshold": ["label.phone_count_threshold=4"],
    "label.rule_combination": ["label.rule_combination=and"],
    "label.split_ratio": ["label.split_ratio=0.6"],
    "label.pairs_per_class": ["label.pairs_per_class=20"],
    "label.include_giant_component": ["label.include_giant_component=false"],
    "label.feature_scope": ["label.feature_scope=ad"],
    "analysis.strata": ["analysis.strata=source"],
    "analysis.variant.distance_threshold_miles": ["analysis.variant.distance_threshold_miles=500"],
    "analysis.variant.phone_count_threshold": ["analysis.variant.phone_count_threshold=5"],
    "analysis.variant.rule_combination": ["analysis.variant.rule_combination=and"],
    "synth.n_ads": ["synth.n_ads=120"],
    "synth.dup_rate": ["synth.dup_rate=0.3"],
    "synth.n_components": ["synth.n_components=9"],
    "synth.component_size_distribution": ["synth.component_size_distribution=uniform"],
    "synth.obfuscation_rate": ["synth.obfuscation_rate=0.2"],
    "export.format": ["export.format=dot"],
    "export.component": ["export.component=0"],
    "stages.compare": ["stages.compare=false"],
    "stages.export": ["stages.export=false"],
}

PINNED_RERUNS = {
    "label.distance_threshold_miles": {"label-htrp", "compare"},
    "label.phone_count_threshold": {"label-htrp", "compare"},
    "threads": set(),
    "workdir": set(),
    "stages.compare": set(),
}


def chain(cfg) -> set[str]:
    """synth then run_all; the stages that ran."""
    results = [run_stage("synth", cfg), *run_all(cfg)]
    return {r["stage"] for r in results if r["ran"]}


@pytest.fixture(scope="module")
def keyed_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("keyed")
    base = root / "base"
    chain(make_cfg(base))
    files = root / "files"
    files.mkdir()
    shutil.copy(base / "corpus.jsonl", files / "corpus.jsonl")
    with open(files / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in read_jsonl(base / "corpus.jsonl"):
            row["locations"] = ";".join(row["locations"])
            row["declared_phone"] = row["declared_phone"] or ""
            writer.writerow(row)
    (files / "annotations.jsonl").write_text('{"ad_id": "no-such-ad", "spans": []}\n')
    shutil.copy(Path(adgraph.__file__).parent / "data" / "gazetteer.csv", files / "gazetteer.csv")
    return base, files


def rerun_matches_fresh(keyed_base, overrides, tmp_path) -> set[str]:
    """Rerun a copy of the base chain under `overrides`, check it against a
    fresh chain with the same settings, and return the stages that reran."""
    base, files = keyed_base
    overrides = [o.format(files=files) for o in overrides]
    shutil.copytree(base, tmp_path / "rerun")
    ran = chain(make_cfg(tmp_path / "rerun", overrides))
    chain(make_cfg(tmp_path / "fresh", overrides))
    old = artifact_bytes(base)
    got = artifact_bytes(tmp_path / "rerun")
    want = artifact_bytes(tmp_path / "fresh")
    # every file a fresh chain writes, manifests included, byte for byte
    assert {name: got.get(name) for name in want} == want
    # anything else is left over from the base run (a disabled stage),
    # untouched
    extra = set(got) - set(want)
    assert {name: got[name] for name in extra} == {name: old.get(name) for name in extra}
    # a stage reran only when its config keys or its inputs changed
    for stage in ran:
        before = json.loads((base / "manifests" / f"{stage}.json").read_text())
        after = json.loads((tmp_path / "rerun" / "manifests" / f"{stage}.json").read_text())
        assert (before["config_hash"], before["inputs"]) != (after["config_hash"], after["inputs"])
    return ran


class TestStageConfigKeys:
    def test_every_leaf_has_a_perturbation(self):
        assert set(PERTURBED) == set(leaves(DEFAULTS))

    def test_readme_table_lists_each_stages_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| stage | config keys it reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines():
            stages, keys = (re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split("|"))
            listed.update((stage, tuple(keys)) for stage in stages)
        assert listed == {name: stage.config for name, stage in pipeline.STAGES.items()}

    @pytest.mark.parametrize("leaf", sorted(leaves(DEFAULTS)))
    def test_one_setting_reruns_only_what_it_reaches(self, keyed_base, leaf, tmp_path):
        ran = rerun_matches_fresh(keyed_base, PERTURBED[leaf], tmp_path)
        if leaf in PINNED_RERUNS:
            assert ran == PINNED_RERUNS[leaf]

    def test_relabel_reruns_only_the_rule_stages(self, keyed_base, tmp_path):
        relabel = (
            PERTURBED["label.distance_threshold_miles"] + PERTURBED["label.phone_count_threshold"]
        )
        assert rerun_matches_fresh(keyed_base, relabel, tmp_path) == {"label-htrp", "compare"}
