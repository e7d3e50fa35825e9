"""Exception hierarchy.

Two broad families matter for the CLI exit-code contract: ``DataError``
(bad or inconsistent inputs, exit code 2) and ``NumericalError`` (runtime
numerical failures, exit code 3). Everything derives from ``HierconnError``.
"""

import math
from dataclasses import Field, fields
from typing import get_args, get_origin, get_type_hints


class HierconnError(Exception):
    """Base class for all package errors."""


class DataError(HierconnError):
    """Invalid, inconsistent, or unusable input data."""


class NumericalError(HierconnError):
    """A numerical failure at runtime (non-finite values, failed checks)."""


# -- data family ------------------------------------------------------------

class ParseError(DataError):
    """A manifest, config, or matrix file could not be parsed."""


class ShapeMismatch(DataError):
    """Array shapes inconsistent with the declared contract."""


class InvariantViolation(DataError):
    """A domain-type invariant failed validation."""

    def __init__(self, message, subject_id=None):
        if subject_id is not None:
            message = f"subject {subject_id!r}: {message}"
        super().__init__(message)
        self.subject_id = subject_id


class InvalidSpec(DataError):
    """A synthetic-dataset spec violates its own invariants."""


class TooFewSubjects(DataError):
    """Not enough subjects per class for the requested split."""


class EmptyDataset(DataError):
    """An operation received an empty subject set."""


class EmptyVector(DataError):
    """An operation received a zero-length vector."""


class InvalidTarget(DataError):
    """A classification target is out of range or not a distribution."""


class SingleClassPresent(DataError):
    """Ranking metrics are undefined when only one class is present."""


class MissingAtlasLabels(DataError):
    """The dataset carries no atlas labels but the operation needs them."""


class UnknownKey(DataError):
    """A config document contains a key the schema does not define."""

    def __init__(self, key_path):
        super().__init__(f"unknown config key {key_path!r}")
        self.key_path = key_path


class InvalidValue(DataError):
    """A config value fails its field's validation."""

    def __init__(self, key_path, message):
        super().__init__(f"config key {key_path!r}: {message}")
        self.key_path = key_path


# -- field value rules -------------------------------------------------------

RANGES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}


# what a JSON value must be for each annotation; bool is an int, so numbers
# exclude it, and an int field also takes an integral float (2.0)
_ACCEPTED = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int, float)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    dict: ("an object", (dict,)),
    tuple: ("an array", (list, tuple)),
}


def _as_type(name: str, kind, value):
    """``value`` as annotation ``kind`` holds it, or ValueError naming ``name``: None
    only where ``kind`` admits it, a ``tuple[X, ...]`` item by item, floats finite."""
    if type(None) in get_args(kind):  # X | None
        if value is None:
            return None
        (kind,) = [t for t in get_args(kind) if t is not type(None)]
    expected, accepted = _ACCEPTED[get_origin(kind) or kind]
    if (
        not isinstance(value, accepted)
        or (isinstance(value, bool) and kind is not bool)
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if get_origin(kind) is tuple:
        return tuple(_as_type(f"{name}[{i}]", get_args(kind)[0], v) for i, v in enumerate(value))
    value = kind(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def field_value(spec: Field, kind, value):
    """``value`` as field ``spec``, annotated ``kind``, holds it, or ValueError:
    of that type and meeting the field's metadata, where "check" names one of
    the ``RANGES`` rules and "choices" lists the accepted values."""
    value = _as_type(spec.name, kind, value)
    if value is None:
        return value
    rule = spec.metadata.get("check")
    if rule is not None and not RANGES[rule](value):
        raise ValueError(f"{spec.name} must be {rule}, got {value!r}")
    choices = spec.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{spec.name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Store every field of dataclass ``obj`` as ``field_value`` gives it (frozen or not)."""
    hints = get_type_hints(type(obj))
    for spec in fields(obj):
        value = field_value(spec, hints[spec.name], getattr(obj, spec.name))
        object.__setattr__(obj, spec.name, value)


# -- numerical family --------------------------------------------------------

class NonFiniteInput(NumericalError):
    """NaN or infinity in data that must be finite."""


class ZeroVarianceNode(DataError):
    """A time-series row is constant, so its correlations are undefined."""

    def __init__(self, row_index):
        super().__init__(f"row {row_index} has zero variance")
        self.row_index = row_index


class NonFiniteActivation(NumericalError):
    """A model stage produced NaN or infinity; the step is aborted."""


class NonFiniteGradient(NumericalError):
    """A backward pass produced NaN or infinity; the batch is skipped."""


class ZeroNormToken(NumericalError):
    """A subgraph token has zero norm and cannot be L2-normalized."""

    def __init__(self, index):
        super().__init__(f"subgraph token {index} has zero norm")
        self.index = index
