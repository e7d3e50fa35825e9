"""Unified run configuration: one JSON document (same text format as the
dataset manifest) merged with command-line overrides.

The dataclass fields define every key: those of ``ModelConfig``,
``TrainConfig`` and ``LossWeights`` the ``model``, ``train`` and ``loss``
sections, those of ``RunConfig`` the top-level keys. Each field holds the
key's default, its type and the help text of its command-line flag. The CLI
makes one flag per field, named after the field unless its metadata names
another (``--patience``, ``--no-mixup``); metadata may also list the accepted
choices and give the key's range ("check"), which parsing enforces key by key
(``errors.field_value``); building a section then checks its one cross-key
rule. Two rules cover the rest: a field without a default (``model.n``, taken
from the dataset) defaults to None and has no flag, and a section field named
like a top-level key (``train.seed``) is set at the top level only.

Defaults are the reference training recipe: lr 1e-4 with weight decay 1e-4
annealed to 1e-5, 200 epochs at batch 64, K=8 subgraph tokens, d=384 with 8
heads over 2 layers, alpha=1.3, tau=2.0, and the sigmoid-scheduled
consistency weight (max 0.2, center at 1/4 of the steps, slope 0.001).
Unknown keys are rejected so typos cannot silently fall back to defaults,
and a value is stored as its field's type.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .atomic import read_json
from .errors import InvalidValue, UnknownKey, check_fields, field_value
from .losses import LossWeights
from .model import ModelConfig
from .train import TrainConfig

OUT_ROOT_ENV = "HIERCONN_OUT_ROOT"


@dataclass
class RunConfig:
    model: dict
    train: dict
    loss: dict
    data: str | None = field(default=None, metadata={"help": "dataset manifest (JSON)"})
    synth: str | None = field(default=None, metadata={"help": "synthetic-dataset spec (JSON)"})
    out: str | None = field(
        default=None, metadata={"help": f"run directory (default: under ${OUT_ROOT_ENV})"}
    )
    seed: int = field(default=0, metadata={"help": "master seed", "check": ">= 0"})
    threads: int = field(default=1, metadata={"help": "worker cap; 1 guarantees determinism"})
    folds: int = field(default=5, metadata={"help": "cross-validation folds", "check": ">= 2"})
    val_fraction: float = field(
        default=0.25, metadata={"help": "held-out validation share", "check": "in (0, 1)"}
    )

    def __post_init__(self):
        check_fields(self)

    def model_config(self, n_from_data: int) -> ModelConfig:
        pinned = self.model["n"]
        if pinned is not None and pinned != n_from_data:
            raise InvalidValue("model.n", f"config pins n={pinned}, dataset has n={n_from_data}")
        return _build("model", {**self.model, "n": n_from_data})

    def train_config(self) -> TrainConfig:
        return _build("train", {**self.train, "seed": self.seed})

    def loss_weights(self) -> LossWeights:
        return _build("loss", self.loss)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConfigKey:
    """One settable key, read off its dataclass field."""

    path: str  # "train.lr" in a section, "seed" at the top level
    spec: Field
    type: type  # the field's annotation, None stripped from an optional one

    @property
    def default(self):
        return None if self.spec.default is MISSING else self.spec.default

    @property
    def flag(self) -> str | None:
        """The field name as a flag, unless the metadata names another one."""
        if self.spec.default is MISSING:
            return None
        return self.spec.metadata.get("flag", "--" + self.spec.name.replace("_", "-"))


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "loss": LossWeights}


def _build(section: str, values: dict):
    """The section's dataclass from ``values``; its cross-key rule becomes InvalidValue."""
    try:
        return SECTIONS[section](**values)
    except ValueError as exc:
        raise InvalidValue(section, str(exc)) from exc


def _keys(cls, section: str | None = None, skip=()):
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in skip:
            kinds = [t for t in get_args(hints[f.name]) if t is not type(None)] or [hints[f.name]]
            yield ConfigKey(f"{section}.{f.name}" if section else f.name, f, kinds[0])


_TOP_LEVEL = {key.path: key for key in _keys(RunConfig, skip=SECTIONS)}
CONFIG_KEYS = {  # every key by dotted path, top-level keys first
    **_TOP_LEVEL,
    **{key.path: key for name, cls in SECTIONS.items() for key in _keys(cls, name, _TOP_LEVEL)},
}


def _set(effective: dict, path: str, value) -> None:
    if path not in CONFIG_KEYS:
        raise UnknownKey(path)
    key = CONFIG_KEYS[path]
    if value is not None or key.default is not None:  # None is unset, where the default is
        try:
            value = field_value(key.spec, key.type, value)
        except ValueError as exc:
            raise InvalidValue(path, str(exc)) from exc
    section, _, name = path.rpartition(".")
    (effective[section] if section else effective)[name] = value


def _merge_document(effective: dict, doc: dict) -> None:
    for key, value in doc.items():
        if key in SECTIONS:
            if not isinstance(value, dict):
                raise InvalidValue(key, "expected an object")
            for sub_key, sub_value in value.items():
                _set(effective, f"{key}.{sub_key}", sub_value)
        elif "." in key:  # dotted paths name section keys in overrides only
            raise UnknownKey(key)
        else:
            _set(effective, key, value)


def parse_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- flag overrides (dotted keys), in that order."""
    effective: dict = {section: {} for section in SECTIONS}
    for key in CONFIG_KEYS.values():
        _set(effective, key.path, key.default)
    if path is not None:
        _merge_document(effective, read_json(path))
    for dotted, value in (overrides or {}).items():
        if value is not None:
            _set(effective, dotted, value)
    return RunConfig(**effective)
