"""Pipeline configuration: defaults, JSON file, dotted overrides.

One global seed feeds every seeded stage. SETTINGS declares what each
leaf key takes, and a value it refuses is refused when the config is
loaded, by an error that names the key with its dotted path.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

from .corpus import FILE_FORMATS
from .dedup import SimilarityConfig
from .errors import ConfigError
from .label import FEATURE_SCOPES, RULE_COMBINATIONS, LabelingConfig
from .synth import SIZE_DISTRIBUTIONS, SynthSpec

STRATA = ("location", "source")
EXPORT_FORMATS = ("graphml", "dot", "both")


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


@dataclass(frozen=True)
class Setting:
    """What a leaf key takes: a value of `type`, or null if `nullable`;
    only one of `choices` if any are given, and nothing below `least`.
    No key takes an empty string, which as a path names the current directory."""

    type: type
    nullable: bool = False
    choices: tuple = ()
    least: int | None = None


# every leaf key that takes more or less than a value of its default's type
_DECLARED = {
    "seed": Setting(int, least=0),
    "threads": Setting(int, least=1),
    "corpus.path": Setting(str, nullable=True),
    "corpus.format": Setting(str, choices=FILE_FORMATS),
    "corpus.annotations": Setting(str, nullable=True),
    "gazetteer": Setting(str, nullable=True),
    "graph.quarantine_cap": Setting(int, nullable=True, least=2),
    "label.rule_combination": Setting(str, choices=RULE_COMBINATIONS),
    "label.feature_scope": Setting(str, choices=FEATURE_SCOPES),
    "analysis.strata": Setting(str, choices=STRATA),
    "analysis.variant.distance_threshold_miles": Setting(float, nullable=True),
    "analysis.variant.phone_count_threshold": Setting(int, nullable=True),
    "analysis.variant.rule_combination": Setting(str, nullable=True, choices=RULE_COMBINATIONS),
    "synth.component_size_distribution": Setting(str, choices=SIZE_DISTRIBUTIONS),
    "export.format": Setting(str, choices=EXPORT_FORMATS),
    "export.component": Setting(int, nullable=True),
}


def _leaves(cfg_dict: dict, path: str = "") -> Iterable[tuple[str, Any]]:
    for key, value in cfg_dict.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, here)
        else:
            yield here, value


# each leaf key of DEFAULTS, by its dotted path
SETTINGS: dict[str, Setting] = {
    dotted: _DECLARED.get(dotted) or Setting(type(default)) for dotted, default in _leaves(DEFAULTS)
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
    """value for a leaf key, if the key's Setting takes it."""
    want = SETTINGS[dotted]
    if value is None:
        if want.nullable:
            return None
        raise ConfigError(f"{dotted}: must not be null")
    if want.type is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, want.type) or (want.type is int and isinstance(value, bool)):
        raise ConfigError(f"{dotted}: expected {want.type.__name__}" + (" or null" if want.nullable else ""))
    if want.choices and value not in want.choices:
        raise ConfigError(f"{dotted}: expected one of {', '.join(want.choices)}")
    if want.least is not None and value < want.least:
        raise ConfigError(f"{dotted}: must be >= {want.least}")
    if value == "":
        raise ConfigError(f"{dotted}: must not be empty")
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

    def __getitem__(self, dotted: str) -> Any:
        """The value of a dotted key, e.g. cfg["corpus.path"]."""
        return _lookup(self.raw, dotted)

    @property
    def workdir(self) -> Path:
        return Path(self.raw["workdir"])

    def _section(self, cls: type, section: str, changes: dict | None = None, name: str | None = None):
        """cls built from the seed, one config section and changes to it;
        its ConfigError names `name`, or else the section."""
        try:
            return cls(seed=self.raw["seed"], **{**self.raw[section], **(changes or {})})
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

    def validate(self) -> None:
        """Check each section's values together, as its dataclass takes them."""
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
