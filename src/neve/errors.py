"""Exception types shared across the toolkit, and the one range rule for config fields."""

import dataclasses


class NeveError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NeveError, ValueError):
    """Invalid configuration; the message names the offending field(s)."""


class DataFormatError(NeveError, ValueError):
    """Malformed dataset file (bad magic, truncation, length mismatch)."""


class NumericError(NeveError, ArithmeticError):
    """Non-finite value produced by the engine; the message names the source."""


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
    dataclass ``spec`` whose value lies outside its ``within`` declaration.
    ``None`` passes, and each item of a tuple is checked."""
    for f in dataclasses.fields(spec):
        allowed = f.metadata.get("allowed")
        value = getattr(spec, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if allowed is not None and item is not None:
                check_value(prefix + f.name, item, allowed)
