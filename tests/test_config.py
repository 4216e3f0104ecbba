import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adgraph
from adgraph import config
from adgraph.config import DEFAULTS, SETTINGS, PipelineConfig, config_hash, load_config
from adgraph.errors import ConfigError
from adgraph.pipeline import STAGES


class TestDefaults:
    def test_defaults_validate(self):
        load_config().validate()

    def test_key_defaults(self):
        cfg = load_config()
        assert cfg["seed"] == 0
        assert cfg["threads"] == 1
        assert str(cfg.workdir) == "out"
        assert cfg["corpus.path"] is None
        assert cfg["corpus.format"] == "jsonl"
        assert cfg["graph.quarantine_cap"] is None
        assert cfg["analysis.strata"] == "location"
        assert cfg["export.format"] == "both"
        assert cfg["stages.compare"] and cfg["stages.export"]

    def test_each_declared_key_takes_its_default(self):
        # a misspelt key in the declarations would declare nothing
        assert set(config._DECLARED) <= set(SETTINGS)
        for dotted in SETTINGS:
            default = config._lookup(DEFAULTS, dotted)
            assert load_config(overrides=[f"{dotted}={json.dumps(default)}"])[dotted] == default

    def test_derived_configs_carry_seed(self):
        cfg = load_config(overrides=["seed=9"])
        assert cfg.similarity().seed == 9
        assert cfg.labeling().seed == 9
        assert cfg.synth_spec().seed == 9


class TestFileLoading:
    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 7, "dedup": {"dup_threshold": 0.95}}))
        cfg = load_config(p)
        assert cfg["seed"] == 7
        assert cfg.similarity().dup_threshold == 0.95
        # untouched keys keep defaults
        assert cfg.similarity().shingle_k == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid json"):
            load_config(p)

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(p)

    def test_unknown_key_named_with_dotted_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dedup": {"bands_count": 16}}))
        with pytest.raises(ConfigError, match="unknown config key: dedup.bands_count"):
            load_config(p)

    def test_type_mismatch(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": "zero"}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_int_promotes_to_float(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"label": {"distance_threshold_miles": 400}}))
        cfg = load_config(p)
        assert cfg.labeling().distance_threshold_miles == 400.0


class TestOverrides:
    def test_set_expression(self):
        cfg = load_config(overrides=["label.pairs_per_class=50", "seed=3"])
        assert cfg.labeling().pairs_per_class == 50
        assert cfg["seed"] == 3

    def test_set_json_values(self):
        cfg = load_config(overrides=["graph.quarantine_cap=25", "stages.compare=false"])
        assert cfg["graph.quarantine_cap"] == 25
        assert not cfg["stages.compare"]
        # null where the default is null, and for a variant key, whose null keeps label.*
        cfg = load_config(overrides=["analysis.variant.distance_threshold_miles=null", "graph.quarantine_cap=null"])
        assert cfg["graph.quarantine_cap"] is None
        assert cfg.labeling(variant=True).distance_threshold_miles == cfg.labeling().distance_threshold_miles

    def test_set_raw_string_fallback(self):
        cfg = load_config(overrides=["corpus.format=csv"])
        assert cfg["corpus.format"] == "csv"

    def test_set_malformed(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(overrides=["seed"])

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["dedup.rows=4"])

    def test_cli_values_win_over_file_and_set(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 7}))
        cfg = load_config(p, overrides=["seed=8"], cli_values={"seed": 9})
        assert cfg["seed"] == 9

    def test_cli_none_values_ignored(self):
        cfg = load_config(cli_values={"seed": None, "workdir": None})
        assert cfg["seed"] == 0

    def test_variant_labeling_applies_only_non_null(self):
        cfg = load_config(
            overrides=[
                "analysis.variant.distance_threshold_miles=500",
                "analysis.variant.rule_combination=and",
            ]
        )
        base = cfg.labeling()
        variant = cfg.labeling(variant=True)
        assert base.distance_threshold_miles == 300.0 and base.rule_combination == "or"
        assert variant.distance_threshold_miles == 500.0
        assert variant.rule_combination == "and"
        # fields with null variant entries inherit the base value
        assert variant.phone_count_threshold == base.phone_count_threshold
        assert variant.pair_sim_threshold == base.pair_sim_threshold


class TestValidate:
    @pytest.mark.parametrize(
        "override, fragment",
        [
            ("threads=0", "threads"),
            ("corpus.format=xml", "corpus.format"),
            ("graph.quarantine_cap=1", "quarantine_cap"),
            ("analysis.strata=city", "analysis.strata"),
            ("export.format=png", "export.format"),
            ("dedup.bands=0", "dedup"),
            ("label.split_ratio=2.0", "label"),
            ("synth.dup_rate=1.5", "synth"),
            # keys that default to null take only their own type
            ("graph.quarantine_cap=abc", "graph.quarantine_cap"),
            ("graph.quarantine_cap=true", "graph.quarantine_cap"),
            ("graph.quarantine_cap=2.5", "graph.quarantine_cap"),
            ("export.component=abc", "export.component"),
            ("export.component=false", "export.component"),
            ("gazetteer=5", "gazetteer"),
            ("corpus.path=7", "corpus.path"),
            ("corpus.annotations=[1]", "corpus.annotations"),
            ("corpus.annotations={}", "corpus.annotations"),
            # null only where the default is null, and for the variant keys
            ("threads=null", "threads"),
            ("label.split_ratio=null", "label.split_ratio"),
            ("dedup.bands=null", "dedup.bands"),
            ("synth.n_ads=null", "synth.n_ads"),
            ("workdir=null", "workdir"),
            ("label.include_giant_component=null", "label.include_giant_component"),
            ("stages.compare=null", "stages.compare"),
            # the variant keys whose default is null take only their own type
            ("analysis.variant.phone_count_threshold=abc", "analysis.variant.phone_count_threshold"),
            ("analysis.variant.phone_count_threshold=true", "analysis.variant.phone_count_threshold"),
            ("analysis.variant.phone_count_threshold=2.5", "analysis.variant.phone_count_threshold"),
            ("analysis.variant.rule_combination=xor", "analysis.variant"),
            # numpy's generators take no negative seed
            ("seed=-1", "seed"),
            # an empty path would name the current directory
            ('workdir=""', "workdir"),
            ('corpus.path=""', "corpus.path"),
            ('corpus.annotations=""', "corpus.annotations"),
            ('gazetteer=""', "gazetteer"),
            # the allowed values of each enumerated key
            ("label.rule_combination=xor", "label.rule_combination"),
            ("label.feature_scope=node", "label.feature_scope"),
            ("synth.component_size_distribution=normal", "synth.component_size_distribution"),
        ],
    )
    def test_bad_values_rejected(self, override, fragment):
        # load_config validates before returning
        with pytest.raises(ConfigError, match=fragment):
            load_config(overrides=[override])

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["seed=true"])


def stage_hash(stage, overrides=()):
    return STAGES[stage].config_hash(load_config(overrides=list(overrides)))


class TestHash:
    """Each stage's manifest hashes only the config keys that stage reads."""

    def test_stable_across_processes(self):
        script = (
            "from adgraph.config import load_config\n"
            "from adgraph.pipeline import STAGES\n"
            "cfg = load_config()\n"
            "print(*(STAGES[s].config_hash(cfg) for s in sorted(STAGES)))\n"
        )
        src = str(Path(adgraph.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        cfg = load_config()
        assert out == [STAGES[s].config_hash(cfg) for s in sorted(STAGES)]
        assert all(len(h) == 64 for h in out)

    def test_semantic_change_changes_hash(self):
        assert stage_hash("dedup") != stage_hash("dedup", ["dedup.dup_threshold=0.8"])
        assert stage_hash("dedup") != stage_hash("dedup", ["seed=1"])
        assert stage_hash("label-htrp") != stage_hash(
            "label-htrp", ["label.distance_threshold_miles=690"]
        )

    def test_label_threshold_leaves_dedup_hash_alone(self):
        for override in ("label.distance_threshold_miles=690", "label.split_ratio=0.7"):
            assert stage_hash("dedup") == stage_hash("dedup", [override])

    @pytest.mark.parametrize(
        "override",
        [
            "workdir=elsewhere",
            "corpus.path=other.jsonl",
            "corpus.annotations=ann.jsonl",
            "gazetteer=custom.csv",
            "threads=8",
        ],
    )
    def test_location_and_execution_keys_excluded(self, override):
        dotted = override.split("=")[0]
        for stage in STAGES.values():
            # neither the key nor a section holding it is in any key list
            assert not any(dotted == k or dotted.startswith(k + ".") for k in stage.config)
            assert stage_hash(stage.name) == stage_hash(stage.name, [override])

    def test_hash_matches_function(self):
        cfg = load_config()
        assert STAGES["dedup"].config_hash(cfg) == config_hash(cfg.raw, ("seed", "dedup"))
        # the order of a stage's key list does not matter
        assert config_hash(cfg.raw, ("seed", "dedup")) == config_hash(cfg.raw, ("dedup", "seed"))


class TestRawIsolation:
    def test_loads_do_not_share_state(self):
        a = load_config(overrides=["dedup.bands=16"])
        b = load_config()
        assert b.similarity().bands == 32
        assert a.similarity().bands == 16
        assert DEFAULTS["dedup"]["bands"] == 32

    def test_default_constructor_copies(self):
        cfg = PipelineConfig()
        cfg.raw["seed"] = 123
        assert DEFAULTS["seed"] == 0
