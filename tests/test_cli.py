import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adgraph
from adgraph import __version__
from adgraph.cli import main


def run(argv):
    return main(argv)


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

    @pytest.mark.parametrize("content", ['{"broken', "{}", "[]", '{"components": 1}'])
    def test_corrupt_graph_json_is_one_error_line(self, finished_workdir, caplog, content):
        (finished_workdir / "graph.json").write_text(content, encoding="utf-8")
        caplog.clear()
        assert run(["stats", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "graph.json" in error and "'graph'" in error and "--force" in error

    @pytest.mark.parametrize("content", ['{"broken', '{"x":1}', "[]", '{"components": {"a": "train"}}'])
    def test_corrupt_split_json_is_one_error_line(self, finished_workdir, caplog, content):
        (finished_workdir / "split.json").write_text(content, encoding="utf-8")
        caplog.clear()
        assert run(["label-oad", "--workdir", str(finished_workdir), "--force"]) == 1
        [error] = self.error_lines(caplog)
        assert "\n" not in error
        assert "split.json" in error and "'split'" in error and "--force" in error

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
