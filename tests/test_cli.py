import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adgraph
from adgraph import __version__, pipeline
from adgraph.cli import main
from adgraph.pipeline import ALL_CHAIN, ARTIFACTS, PRODUCER, STAGES


def run(argv):
    return main(argv)


def key_at(container, key):
    """The key of a dict that an int key names by position; any other key as it is."""
    return list(container)[key] if isinstance(container, dict) and isinstance(key, int) else key


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
        assert "COMMAND" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_choice_value(self):
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--format", "xml"])
        assert exc.value.code == 2


class TestErrors:
    def test_missing_corpus_returns_1(self, tmp_path, caplog):
        code = run(["ingest", "--workdir", str(tmp_path / "w")])
        assert code == 1
        assert "no corpus configured" in caplog.text

    def test_bad_config_value_returns_1(self, tmp_path, caplog):
        code = run(
            ["synth", "--workdir", str(tmp_path / "w"), "--set", "synth.dup_rate=2.0"]
        )
        assert code == 1
        assert "dup_rate" in caplog.text

    def test_stage_before_inputs_returns_1(self, tmp_path, caplog):
        code = run(["dedup", "--workdir", str(tmp_path / "w")])
        assert code == 1
        assert "ingest" in caplog.text

    def test_forced_run_on_corrupt_artifact_returns_1(self, tmp_path, caplog):
        workdir = str(tmp_path / "w")
        args = ["--workdir", workdir, "--n-ads", "30", "--n-components", "5", "--quiet"]
        assert run(["synth", *args]) == 0
        assert run(["ingest", "--workdir", workdir, "--quiet"]) == 0
        with open(tmp_path / "w" / "normalized.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"broken\n')
        assert run(["dedup", "--workdir", workdir]) == 1
        assert "stale or edited" in caplog.text
        caplog.clear()
        assert run(["dedup", "--workdir", workdir, "--force"]) == 1
        assert "not valid json" in caplog.text
        # a row repeated
        normalized = tmp_path / "w" / "normalized.jsonl"
        rows = normalized.read_text(encoding="utf-8").splitlines()[:-1]
        normalized.write_text("\n".join([*rows, rows[0]]) + "\n", encoding="utf-8")
        caplog.clear()
        assert run(["dedup", "--workdir", workdir, "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "duplicate ad_id" in error and "normalized.jsonl" in error
        assert "rerun 'ingest' with --force" in error

    @pytest.fixture
    def finished_workdir(self, tmp_path):
        workdir = tmp_path / "w"
        args = ["--workdir", str(workdir), "--quiet"]
        assert run(["synth", *args, "--n-ads", "60", "--n-components", "8"]) == 0
        assert run(["all", *args]) == 0
        return workdir

    @staticmethod
    def error_lines(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    @staticmethod
    def edit_json(path, content) -> None:
        """Write content at path: a string as it is; (keys, value) sets the
        value at that path of the file's document, and a function edits it."""
        if not isinstance(content, str):
            doc = target = json.loads(path.read_text(encoding="utf-8"))
            if callable(content):
                content(doc)
            else:
                (*keys, last), value = content
                for key in keys:
                    target = target[key_at(target, key)]
                target[key_at(target, last)] = value
            content = json.dumps(doc)
        path.write_text(content, encoding="utf-8")

    @pytest.mark.parametrize(
        "content",
        [
            '{"broken',
            "{}",
            "[]",
            '{"components": 1}',
            # (keys, value): a string where a list belongs, which must not be
            # read as a list of one-letter strings; an int key at a dict is
            # the position of one of its keys
            (("node_locations", 0), "Miami"),
            (("nodes",), "a000001"),
            (("components", 0), "a000001"),
            (("edges",), [{"a": "a000001", "b": "a000002", "shared": "phone:2125550100"}]),
            # a components key that is not an int
            (("components", "x"), ["a000001"]),
            # components that do not partition the nodes: an empty one, a
            # node in two, a node in none
            (("components", 0), []),
            lambda doc: doc["components"]["1"].append(doc["nodes"][0]),
            lambda doc: doc["nodes"].append("zzz"),
        ],
    )
    def test_corrupt_graph_json_is_one_error_line(self, finished_workdir, caplog, content):
        self.edit_json(finished_workdir / "graph.json", content)
        caplog.clear()
        assert run(["stats", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "graph.json" in error and "'graph'" in error and "--force" in error

    @pytest.mark.parametrize(
        "content",
        [
            '{"broken',
            '{"x":1}',
            "[]",
            '{"components": {"a": "train"}}',
            # a side other than train/test on the graph's components, and
            # components other than the graph's
            pytest.param((("components", 0), "nope"), id="side-nope"),
            '{"components": {"0": ["train"]}}',
            '{"components": {}}',
        ],
    )
    def test_corrupt_split_json_is_one_error_line(self, finished_workdir, caplog, content):
        self.edit_json(finished_workdir / "split.json", content)
        caplog.clear()
        assert run(["label-oad", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "split.json" in error and "'split'" in error and "--force" in error

    @pytest.mark.parametrize("artifact", sorted(pipeline.PARSERS))
    def test_non_utf8_artifact_is_one_error_line(self, finished_workdir, caplog, artifact):
        path = finished_workdir / ARTIFACTS[artifact]
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        reader = next(s for s in ALL_CHAIN if artifact in STAGES[s].inputs)
        caplog.clear()
        assert run([reader, "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert f"artifact {path.name} cannot be read" in error
        assert f"rerun '{PRODUCER[artifact]}' with --force" in error

    @pytest.mark.parametrize(
        "artifact, field, value",
        [
            ("htrp_labels", "features.max_span_miles", "x"),
            ("htrp_labels", "label", True),
            ("clusters", "member_ids", "a000001"),
            ("records", "posted_at", "yesterday"),
            ("identifiers", "ad_id", 1),
        ],
    )
    def test_wrong_value_type_is_one_error_line(self, finished_workdir, caplog, artifact, field, value):
        path = finished_workdir / ARTIFACTS[artifact]
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        *parents, name = field.split(".")
        target = rows[0]
        for key in parents:
            target = target[key]
        target[name] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        reader = next(s for s in ALL_CHAIN if artifact in STAGES[s].inputs)
        caplog.clear()
        assert run([reader, "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert f"artifact {path.name} cannot be read" in error
        assert f"rerun '{PRODUCER[artifact]}' with --force" in error

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--config", None),
            ("--corpus", None),
            ("--annotations", None),
            ("--gazetteer", None),
            ("--config", b'\xff\xfe{"seed": 1}\n'),
            ("--gazetteer", b"name,lat,lon\n\xffparis,48.8,2.3\n"),
            ("--gazetteer", "missing"),
        ],
        ids=["dir-config", "dir-corpus", "dir-annotations", "dir-gazetteer",
             "non-utf8-config", "non-utf8-gazetteer", "missing-gazetteer"],
    )
    def test_bad_input_path_is_one_error_line(self, tmp_path, caplog, flag, content):
        workdir = tmp_path / "w"
        assert run(["synth", "--workdir", str(workdir), "--quiet", "--n-ads", "30", "--n-components", "5"]) == 0
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        elif content != "missing":
            path.write_bytes(content)
        caplog.clear()
        assert run(["all", "--workdir", str(workdir), flag, str(path)]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert str(path) in error

    def test_variant_pair_sim_threshold_is_an_unknown_key(self, tmp_path, caplog):
        argv = ["all", "--workdir", str(tmp_path / "w"), "--set", "analysis.variant.pair_sim_threshold=0.3"]
        assert run(argv) == 1
        assert self.error_lines(caplog) == ["unknown config key: analysis.variant.pair_sim_threshold"]

    @pytest.mark.parametrize(
        "line", ['{"kind": "phone", "raw": "x", "canonical": "2125550100"}', "[1, 2]"]
    )
    def test_bad_identifiers_row_is_one_error_line(self, finished_workdir, caplog, line):
        identifiers = finished_workdir / "identifiers.jsonl"
        identifiers.write_text(identifiers.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        caplog.clear()
        assert run(["graph", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "identifiers.jsonl" in error and "'extract'" in error and "--force" in error

    @pytest.mark.parametrize(
        "artifact, extra",
        [
            # a row whose ad is in no cluster
            ("identifiers", lambda rows: {**rows[0], "ad_id": "zzz"}),
            ("records", lambda rows: {**rows[0], "ad_id": "zzz"}),
            # an ad in two clusters, a cluster repeated, and a canonical outside its cluster
            ("clusters", lambda rows: {**rows[0], "canonical_id": "zzz", "member_ids": ["zzz", rows[0]["canonical_id"]]}),
            ("clusters", lambda rows: rows[0]),
            ("clusters", lambda rows: {**rows[0], "canonical_id": "zzz", "member_ids": []}),
        ],
        ids=["identifier-unclustered", "record-unclustered", "ad-in-two-clusters", "cluster-repeated",
             "canonical-outside-its-cluster"],
    )
    def test_inconsistent_graph_input_is_one_error_line(self, finished_workdir, caplog, artifact, extra):
        path = finished_workdir / ARTIFACTS[artifact]
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(json.dumps(row) + "\n" for row in [*rows, extra(rows)]), encoding="utf-8")
        caplog.clear()
        assert run(["graph", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert f"artifact {path.name} cannot be read" in error
        assert f"rerun '{PRODUCER[artifact]}' with --force" in error

    @pytest.mark.parametrize("via", [["--component", "99999"], ["--set", "export.component=99999"]])
    def test_missing_export_component_is_one_error_line(self, finished_workdir, caplog, via):
        graph = json.loads((finished_workdir / "graph.json").read_text(encoding="utf-8"))
        caplog.clear()
        assert run(["export", "--workdir", str(finished_workdir), *via]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "export.component" in error and "99999" in error
        assert f"has {len(graph['components'])} components" in error

    def test_row_without_timestamp_names_its_stage_and_force(self, finished_workdir, caplog):
        records = finished_workdir / "records.jsonl"
        rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
        del rows[3]["posted_at"]
        records.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        caplog.clear()
        assert run(["dedup", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "records.jsonl" in error and "row has keys" in error
        assert "'ingest'" in error and "--force" in error

    def test_old_format_artifact_names_its_stage_and_force(self, tmp_path, caplog):
        # a workdir written before normalized.jsonl dropped original_text:
        # the ingest manifest still matches the file, so ingest stays fresh
        workdir = tmp_path / "w"
        args = ["--workdir", str(workdir), "--quiet"]
        assert run(["synth", *args, "--n-ads", "60", "--n-components", "8"]) == 0
        assert run(["all", *args]) == 0
        normalized = workdir / "normalized.jsonl"
        rows = [json.loads(line) for line in normalized.read_text(encoding="utf-8").splitlines()]
        normalized.write_text(
            "".join(json.dumps({**r, "original_text": r["norm_text"]}) + "\n" for r in rows),
            encoding="utf-8",
        )
        manifest = workdir / "manifests" / "ingest.json"
        man = json.loads(manifest.read_text(encoding="utf-8"))
        man["outputs"]["normalized"] = hashlib.sha256(normalized.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(man), encoding="utf-8")

        rerun = ["all", *args, "--set", "dedup.dup_threshold=0.8"]
        caplog.clear()
        assert run(rerun) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert "normalized.jsonl" in errors[0]
        assert "'ingest'" in errors[0] and "--force" in errors[0]
        # the remedy the message names works
        assert run(["ingest", *args, "--force"]) == 0
        assert run(rerun) == 0


class TestHappyPath:
    def test_synth_then_all(self, tmp_path):
        workdir = str(tmp_path / "w")
        base = [
            "--workdir", workdir,
            "--set", "synth.n_ads=120",
            "--set", "synth.n_components=10",
            "--set", "synth.dup_rate=0.5",
            "--set", "label.pairs_per_class=25",
        ]
        assert run(["synth", *base]) == 0
        assert run(["all", *base]) == 0
        labels = (tmp_path / "w" / "htrp_labels.jsonl").read_text().splitlines()
        assert len(labels) > 0
        report = json.loads((tmp_path / "w" / "compare_report.json").read_text())
        assert report["n_ads"] == len(labels)

    def test_synth_flags_reach_config(self, tmp_path):
        workdir = tmp_path / "w"
        assert (
            run(
                [
                    "synth",
                    "--workdir", str(workdir),
                    "--n-ads", "30",
                    "--n-components", "30",
                    "--dup-rate", "0",
                    "--size-distribution", "singletons",
                ]
            )
            == 0
        )
        lines = (workdir / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 30
        truth = json.loads((workdir / "ground_truth.json").read_text())
        assert all(len(c) == 1 for c in truth["planted_components"])

    def test_single_stage_flow_with_flags(self, tmp_path):
        workdir = tmp_path / "w"
        assert run(["synth", "--workdir", str(workdir), "--n-ads", "60", "--n-components", "8"]) == 0
        corpus = workdir / "corpus.jsonl"
        other = tmp_path / "elsewhere"
        assert run(["ingest", "--workdir", str(other), "--corpus", str(corpus)]) == 0
        assert (other / "records.jsonl").exists()
        assert run(["dedup", "--workdir", str(other)]) == 0
        assert (other / "clusters.jsonl").exists()

    def test_compare_prints_report(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        base = [
            "--workdir", workdir,
            "--set", "synth.n_ads=100",
            "--set", "synth.n_components=10",
            "--set", "label.pairs_per_class=20",
        ]
        assert run(["synth", *base]) == 0
        assert run(["all", *base]) == 0
        out = capsys.readouterr().out
        assert "wilcoxon" in out
        assert "label flips" in out

    def test_quiet_all_writes_nothing_to_stdout(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        base = [
            "--workdir", workdir,
            "--quiet",
            "--set", "synth.n_ads=100",
            "--set", "synth.n_components=10",
            "--set", "label.pairs_per_class=20",
        ]
        assert run(["synth", *base]) == 0
        assert run(["all", *base]) == 0
        assert (tmp_path / "w" / "compare_report.json").exists()
        assert capsys.readouterr().out == ""

    def test_quiet_suppresses_info(self, tmp_path, caplog):
        workdir = str(tmp_path / "w")
        assert run(["synth", "--workdir", workdir, "--quiet", "--n-ads", "20", "--n-components", "5"]) == 0
        assert not [r for r in caplog.records if r.levelname == "INFO"]


class TestByteOrderMark:
    # what an editor that saves "UTF-8 with BOM" writes
    JSONL = (
        '{"ad_id": "a1", "description": "call 555 123 0147", "posted_at": "2024-01-01T00:00:00Z"}\n'
        '{"ad_id": "a2", "title": "Hi", "description": "", "posted_at": "2024-01-02T00:00:00Z"}\n'
    )
    CSV = (
        "ad_id,title,description,posted_at,locations,declared_phone,source\n"
        "a1,,call 555 123 0147,2024-01-01T00:00:00Z,paris;lyon,,site_a\n"
        "a2,Hi,,2024-01-02T00:00:00Z,,5551230147,site_b\n"
    )

    def ingested(self, tmp_path, name, fmt, content) -> Path:
        corpus = tmp_path / f"{name}.{fmt}"
        corpus.write_text(content, encoding="utf-8")
        workdir = tmp_path / name
        args = ["ingest", "--quiet", "--workdir", str(workdir), "--corpus", str(corpus), "--format", fmt]
        assert run(args) == 0
        return workdir

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_leading_bom_reads_as_without_it(self, tmp_path, fmt):
        content = self.JSONL if fmt == "jsonl" else self.CSV
        plain = self.ingested(tmp_path, "plain", fmt, content)
        marked = self.ingested(tmp_path, "marked", fmt, "\ufeff" + content)
        assert (marked / "rejects.jsonl").read_bytes() == b""
        for name in ("records.jsonl", "normalized.jsonl"):
            assert (marked / name).read_bytes() == (plain / name).read_bytes()
        assert len((marked / "records.jsonl").read_text().splitlines()) == 2


class TestCompareReadsNoGazetteer:
    # the variant thresholds equal the base ones, so no label may move
    SAME = ["--set", "analysis.variant.distance_threshold_miles=300"]

    @pytest.fixture
    def labeled(self, tmp_path):
        workdir = tmp_path / "w"
        gazetteer = tmp_path / "gazetteer.csv"
        shutil.copy(Path(adgraph.__file__).parent / "data" / "gazetteer.csv", gazetteer)
        args = ["--workdir", str(workdir), "--quiet"]
        assert run(["synth", *args, "--n-ads", "200", "--n-components", "20"]) == 0
        assert run(["all", *args, *self.SAME, "--gazetteer", str(gazetteer)]) == 0
        return workdir, gazetteer

    def test_only_label_htrp_records_the_gazetteer(self, labeled):
        workdir, _ = labeled
        inputs = {
            stage: json.loads((workdir / "manifests" / f"{stage}.json").read_text())["inputs"]
            for stage in ("label-htrp", "compare")
        }
        assert "gazetteer" in inputs["label-htrp"]
        assert set(inputs["compare"]) == {"graph", "htrp_labels", "records"}

    def test_edited_gazetteer_moves_no_variant_label(self, labeled):
        workdir, gazetteer = labeled
        labels = [json.loads(line) for line in (workdir / "htrp_labels.jsonl").read_text().splitlines()]
        assert any(ad["rule_trace"] == ["distance"] for ad in labels)
        # every city at one point: no span would fire the distance rule
        rows = gazetteer.read_text(encoding="utf-8").splitlines()
        moved = [rows[0]] + [f"{row.split(',')[0]},40.0,-100.0" for row in rows[1:]]
        gazetteer.write_text("\n".join(moved) + "\n", encoding="utf-8")
        for force in ([], ["--force"]):
            argv = ["compare", "--workdir", str(workdir), "--quiet", *self.SAME, *force]
            assert run([*argv, "--set", f"gazetteer={gazetteer}"]) == 0
            report = json.loads((workdir / "compare_report.json").read_text())
            assert report["flips"] == {"neg_to_pos": 0, "pos_to_neg": 0}


class TestBrokenPipe:
    def test_reader_gone_before_report_exits_0(self, tmp_path):
        workdir = str(tmp_path / "w")
        args = ["--workdir", workdir, "--n-ads", "60", "--n-components", "8", "--quiet"]
        assert run(["synth", *args]) == 0
        assert run(["all", "--workdir", workdir, "--quiet"]) == 0
        # as `adgraph compare ... | head -1` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(adgraph.__file__).resolve().parent.parent)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "adgraph.cli", "compare", "--force", "--workdir", workdir],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


class TestProgramExit:
    """Only the program, which parsed sys.argv itself, freezes its heap,
    and only once the chain's collector thresholds are restored."""

    def test_the_program_freezes_once_and_a_caller_with_argv_never(self, tmp_path, monkeypatch):
        froze = []
        monkeypatch.setattr(gc, "freeze", lambda: froze.append(gc.get_threshold()))
        workdir = str(tmp_path / "w")
        args = ["--workdir", workdir, "--n-ads", "60", "--n-components", "8", "--quiet"]
        assert run(["synth", *args]) == 0
        assert run(["all", "--workdir", workdir, "--quiet"]) == 0
        assert froze == []
        monkeypatch.setattr(sys, "argv", ["adgraph", "all", "--workdir", workdir, "--quiet", "--force"])
        assert main() == 0
        assert froze == [gc.get_threshold()]
        # an error exit freezes too: the interpreter exits either way
        monkeypatch.setattr(sys, "argv", ["adgraph", "dedup", "--workdir", str(tmp_path / "none"), "--quiet"])
        assert main() == 1
        assert len(froze) == 2
