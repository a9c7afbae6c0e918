"""Exception types shared across the toolkit, the type and range rules for
config fields, and the label rule (``check_labels``): labels are an integer
array of shape (rows,) whose values lie in [0, n_classes)."""

import dataclasses
import functools
from typing import get_args, get_origin, get_type_hints

import numpy as np


class NeveError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NeveError, ValueError):
    """Invalid configuration; the message names the offending field(s)."""


class DataFormatError(NeveError, ValueError):
    """Malformed dataset file (bad magic, truncation, length mismatch)."""


class NumericError(NeveError, ArithmeticError):
    """Non-finite value produced by the engine; the message names the source."""


@functools.cache
def field_types(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass (shared; read only)."""
    return get_type_hints(cls)


# scalar annotation -> (what one value must be, what the items of a tuple must be)
_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a string", "strings"), bool: ("true or false", "booleans")}


def _fits(value, hint) -> bool:
    """Whether a value fits a scalar annotation; an int is a number, a bool is neither."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def check_type(name: str, value, hint) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` fits the annotation
    ``hint``: an int takes no bool or float, a float takes an int, only
    ``X | None`` takes None, and a tuple holds a tuple of fitting items."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, tuple) and all(_fits(v, args[0]) for v in value):
            return
        what = f"a tuple of {_KINDS[args[0]][1]}"
    else:
        optional = type(None) in args                           # X | None
        scalar = args[0] if optional else hint
        if (optional and value is None) or _fits(value, scalar):
            return
        what = _KINDS.get(scalar, (f"a {scalar.__name__}",))[0]
        what += " or null" if optional else ""
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def within(default, allowed):
    """A config dataclass field defaulting to ``default`` whose values must lie
    in ``allowed``: an interval such as ``"(0, 1)"`` or ``"[1, inf)"``, or a
    tuple of names. ``check_fields`` enforces it."""
    return dataclasses.field(default=default, metadata={"allowed": allowed})


def shown(allowed) -> str:
    """A ``within`` declaration as errors and help print it: ``(0, 1)``, ``{sgd, adam}``."""
    return allowed if isinstance(allowed, str) else "{" + ", ".join(allowed) + "}"


def check_value(name: str, value, allowed) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` lies in ``allowed`` (see ``within``)."""
    if not isinstance(allowed, str):
        inside = value in allowed
    else:
        lo, hi = (float(end) for end in allowed[1:-1].split(","))
        # every comparison with NaN is false, so NaN lies in no interval
        inside = ((lo <= value if allowed[0] == "[" else lo < value)
                  and (value <= hi if allowed[-1] == "]" else value < hi))
    if not inside:
        raise ConfigError(f"{name} must lie in {shown(allowed)}, got {value!r}")


def check_fields(spec, prefix: str = "") -> None:
    """Raise ConfigError naming ``<prefix><field>`` for the first field of the
    dataclass ``spec`` whose value misfits its annotation (``check_type``; an
    ``object`` field, ``arch``, is left to its reader) or lies outside its
    ``within`` declaration, which checks each item of a tuple."""
    hints = field_types(type(spec))
    for f in dataclasses.fields(spec):
        allowed = f.metadata.get("allowed")
        value = getattr(spec, f.name)
        if hints[f.name] is not object:
            check_type(prefix + f.name, value, hints[f.name])
        for item in value if isinstance(value, tuple) else (value,):
            if allowed is not None and item is not None:
                check_value(prefix + f.name, item, allowed)


def check_labels(labels, rows: int, n_classes: int, prefix: str = "") -> np.ndarray:
    """``labels`` as an array, or ConfigError (its message led by ``prefix``)
    unless they are integers of shape (rows,) in [0, n_classes): a float,
    missing, surplus or nested label would index the logits wrongly or fail deep in numpy."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ConfigError(f"{prefix}labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (rows,):
        raise ConfigError(f"{prefix}labels of shape {labels.shape} for a batch of {rows} "
                          "rows; give one label per row")
    if rows and (labels.min() < 0 or labels.max() >= n_classes):
        raise ConfigError(f"{prefix}labels must lie in [0, {n_classes}), got range "
                          f"[{labels.min()}, {labels.max()}]")
    return labels
