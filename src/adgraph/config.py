"""Pipeline configuration: defaults, JSON file, dotted overrides.

One global seed feeds every seeded stage. Validation errors name the
offending key with its dotted path.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

from .dedup import SimilarityConfig
from .errors import ConfigError
from .geo import Gazetteer
from .label import LabelingConfig
from .synth import SynthSpec


def _field_defaults(cls: type) -> dict:
    """A config dataclass's defaults; the global seed is set apart."""
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


DEFAULTS: dict = {
    "seed": 0,
    "workdir": "out",
    "threads": 1,
    "corpus": {"path": None, "format": "jsonl", "annotations": None},
    "gazetteer": None,
    "dedup": _field_defaults(SimilarityConfig),
    "graph": {"quarantine_cap": None},
    "label": _field_defaults(LabelingConfig),
    "analysis": {
        "strata": "location",
        # the HTRP rule thresholds compare relabels under; null keeps label.*
        "variant": {
            "distance_threshold_miles": 150.0,
            "phone_count_threshold": None,
            "rule_combination": None,
        },
    },
    "synth": _field_defaults(SynthSpec),
    "export": {"format": "both", "component": None},
    "stages": {"compare": True, "export": True},
}

def _merge(base: dict, incoming: dict, path: str = "") -> None:
    for key, value in incoming.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        current = base[key]
        if isinstance(current, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            _merge(current, value, here)
            continue
        base[key] = _checked(here, value)


def _checked(dotted: str, value: Any) -> Any:
    """value for a leaf key, if it has the key's type: its default's, or
    its _NULLABLE entry's. Null is taken only where the default is null
    and by the variant keys, whose null keeps the label.* value."""
    default = _lookup(DEFAULTS, dotted)
    if value is None:
        if default is None or dotted.startswith("analysis.variant."):
            return None
        raise ConfigError(f"{dotted}: must not be null")
    want = _NULLABLE.get(dotted, type(default))
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if want is bool and not isinstance(value, bool):
        raise ConfigError(f"{dotted}: expected a boolean")
    if not isinstance(value, want) or (want is int and isinstance(value, bool)):
        raise ConfigError(f"{dotted}: expected {want.__name__}" + (" or null" if default is None else ""))
    return value


def _apply_override(cfg: dict, expr: str) -> None:
    if "=" not in expr:
        raise ConfigError(f"override must look like key=value, got {expr!r}")
    dotted, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set_dotted(cfg, dotted.strip(), value)


def _set_dotted(cfg: dict, dotted: str, value: Any) -> None:
    """Merge value into cfg at a dotted key, checked as a config file is."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    _merge(cfg, value)


def _lookup(cfg_dict: dict, dotted: str) -> Any:
    for key in dotted.split("."):
        cfg_dict = cfg_dict[key]
    return cfg_dict


# the type of each key whose default is null
_NULLABLE = {
    "corpus.path": str,
    "corpus.annotations": str,
    "gazetteer": str,
    "graph.quarantine_cap": int,
    "analysis.variant.phone_count_threshold": int,
    "analysis.variant.rule_combination": str,
    "export.component": int,
}


def config_hash(cfg_dict: dict, keys: Iterable[str]) -> str:
    """Content hash over the values of the given dotted keys.

    A key may name a leaf ("label.split_ratio") or a whole section
    ("dedup"); the hash changes exactly when one of those values does.
    """
    picked = {dotted: _lookup(cfg_dict, dotted) for dotted in keys}
    canon = json.dumps(picked, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class PipelineConfig:
    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def workdir(self) -> Path:
        return Path(self.raw["workdir"])

    @property
    def threads(self) -> int:
        return self.raw["threads"]

    @property
    def corpus_path(self) -> Path | None:
        p = self.raw["corpus"]["path"]
        return Path(p) if p else None

    @property
    def corpus_format(self) -> str:
        return self.raw["corpus"]["format"]

    @property
    def annotations_path(self) -> Path | None:
        p = self.raw["corpus"]["annotations"]
        return Path(p) if p else None

    @property
    def quarantine_cap(self) -> int | None:
        return self.raw["graph"]["quarantine_cap"]

    @property
    def strata_key(self) -> str:
        return self.raw["analysis"]["strata"]

    @property
    def export_format(self) -> str:
        return self.raw["export"]["format"]

    @property
    def export_component(self) -> int | None:
        return self.raw["export"]["component"]

    def stage_enabled(self, name: str) -> bool:
        return bool(self.raw["stages"].get(name, True))

    def _section(self, cls: type, section: str, changes: dict | None = None, name: str | None = None):
        """cls built from the seed, one config section and changes to it;
        its ConfigError names `name`, or else the section."""
        try:
            return cls(seed=self.seed, **{**self.raw[section], **(changes or {})})
        except ConfigError as e:
            raise ConfigError(f"{name or section}: {e}") from None

    def similarity(self) -> SimilarityConfig:
        return self._section(SimilarityConfig, "dedup")

    def labeling(self, variant: bool = False) -> LabelingConfig:
        if not variant:
            return self._section(LabelingConfig, "label")
        # a null variant value keeps the label.* one
        changes = {k: v for k, v in self.raw["analysis"]["variant"].items() if v is not None}
        return self._section(LabelingConfig, "label", changes, name="analysis.variant")

    def synth_spec(self) -> SynthSpec:
        return self._section(SynthSpec, "synth")

    def gazetteer(self) -> Gazetteer:
        p = self.raw["gazetteer"]
        return Gazetteer.load(p) if p else Gazetteer.bundled()

    def validate(self) -> None:
        if self.threads < 1:
            raise ConfigError("threads: must be >= 1")
        if self.corpus_format not in ("jsonl", "csv"):
            raise ConfigError("corpus.format: must be jsonl or csv")
        cap = self.quarantine_cap
        if cap is not None and cap < 2:
            raise ConfigError("graph.quarantine_cap: must be >= 2 or null")
        if self.strata_key not in ("location", "source"):
            raise ConfigError("analysis.strata: must be location or source")
        if self.export_format not in ("graphml", "dot", "both"):
            raise ConfigError("export.format: must be graphml, dot, or both")
        self.similarity()
        self.labeling()
        self.labeling(variant=True)
        self.synth_spec()


def load_config(
    path: str | Path | None = None,
    overrides: Sequence[str] = (),
    cli_values: dict[str, Any] | None = None,
) -> PipelineConfig:
    """Defaults, then config file, then --set overrides, then CLI flags."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid json ({e})") from None
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: cannot read config file ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a json object")
        _merge(cfg, data)
    for expr in overrides:
        _apply_override(cfg, expr)
    for dotted, value in (cli_values or {}).items():
        if value is not None:
            _set_dotted(cfg, dotted, value)
    out = PipelineConfig(cfg)
    out.validate()
    return out
