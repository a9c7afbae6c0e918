"""Experiment configuration: nested specs, JSON files and flag overrides.

A config arrives as a JSON file or a plain dict, type-checked as it is
read into plain dicts; CLI flags and sweep variants are dotted-key
overrides laid on top, and the result is built once. Every spec checks
its fields' types and ranges when it is built, by the same rules, so any
instance that exists is valid. Unknown keys and misfit or out-of-range
values raise ConfigError naming the offending field.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_origin

from ..controller import SchedulerSpec
from ..data import digits_max_shift
from ..engine.optim import OptimizerSpec
from ..errors import ConfigError, check_fields, check_type, field_types, within

AUX_SOURCES = ("noise", "heldout", "train")
AUGMENT_KINDS = ("none", "pad_crop_flip")


def _from_dict(cls, raw: dict, prefix: str, build: bool = True):
    """Build ``cls`` from plain dicts, recursing into nested specs; with
    ``build`` false, return the type-checked plain dicts instead.

    The field annotations drive the conversion: JSON lists become tuples,
    and each value must fit its field's type (``check_type``, the rule a
    spec applies as it is built, so a file and a library caller get the
    same error). A field annotated ``object`` (``arch``, a layer-dict
    list) is left to the architecture walk. Unknown keys and misfits
    raise ConfigError naming the dotted field.
    """
    hints = field_types(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown config field '{prefix}{key}'")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"config field '{prefix}{key}' must be a mapping")
            value = _from_dict(hint, value, f"{prefix}{key}.", build)
        elif hint is not object:
            if get_origin(hint) is tuple and isinstance(value, list):
                value = tuple(value)
            check_type(prefix + key, value, hint)
        kwargs[key] = value
    return cls(**kwargs) if build else kwargs


def _layer(raw: dict, overrides: dict) -> dict:
    """Lay dotted-key overrides (e.g. "scheduler.epsilon") onto config dicts
    in place, skipping None values. A key through a field that is no section
    raises ConfigError naming it; the build names an unknown last part."""
    for key, value in overrides.items():
        if value is None:
            continue
        node, cls = raw, ExperimentConfig
        *sections, name = key.split(".")
        for part in sections:
            cls = field_types(cls).get(part)
            if not dataclasses.is_dataclass(cls):
                raise ConfigError(f"unknown config field {key!r}")
            node = node.setdefault(part, {})
        node[name] = value
    return raw


@dataclass(frozen=True)
class DatasetSpec:
    """What to train on and how to slice it.

    ``subset`` caps the training set (stratified) before the validation
    split is carved out, mirroring a data-scarce regime. The validation
    split, and the 10% test part carved from CIFAR-10 training files when
    no test file is named, are drawn from fixed seeds. A spec checks its
    fields when it is built, with dotted names in its errors; the data
    functions take their values as plain arguments.
    """

    name: str = within("blobs", ("blobs", "digits", "idx", "cifar10"))
    subset: int | None = within(None, "[1, inf)")
    validation_fraction: float = within(0.0, "[0, 1)")
    augment: str = within("none", AUGMENT_KINDS)
    normalize: bool = False
    data_seed: int = within(0, "[0, inf)")
    # synthetic generator knobs
    n_samples: int = 2000
    n_classes: int = within(4, "[1, inf)")
    sigma: float = within(0.5, "(0, inf)")
    noise: float = within(0.25, "[0, inf)")
    shift: int = 2
    test_samples: int = 1000
    # file-backed datasets
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    cifar_train_paths: tuple[str, ...] = ()
    cifar_test_paths: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, "dataset.")
        most = digits_max_shift()
        if self.name == "digits" and not 0 <= self.shift <= most:
            raise ConfigError(f"dataset.shift must lie in [0, {most}], got {self.shift}")
        least = {"blobs": self.n_classes, "digits": 10}.get(self.name, 0)
        for key in ("n_samples", "test_samples"):
            if getattr(self, key) < least:
                raise ConfigError(f"dataset.{key} must be >= {least}, one sample per "
                                  f"class, got {getattr(self, key)}")
        if self.name == "cifar10" and not self.cifar_train_paths:
            raise ConfigError("dataset.cifar_train_paths is required for cifar10")
        for key, path in self.files():
            if path is None:
                raise ConfigError(f"dataset.{key} is required for the {self.name} dataset")
            if not Path(path).is_file():
                raise ConfigError(f"dataset.{key} is not an existing file: {path!r}")

    def files(self) -> list[tuple[str, object]]:
        """(field, path) of every file the dataset is read from."""
        if self.name == "idx":
            return [(key, getattr(self, key))
                    for key in ("train_images", "train_labels", "test_images", "test_labels")]
        if self.name == "cifar10":
            return ([("cifar_train_paths", path) for path in self.cifar_train_paths]
                    + [("cifar_test_paths", path) for path in self.cifar_test_paths])
        return []


@dataclass(frozen=True)
class AuxSpec:
    source: str = within("noise", AUX_SOURCES)
    count: int = within(100, "[1, inf)")
    seed: int = within(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self, "aux.")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: object = "mlp:2-64-64-4"        # shorthand string or layer dict list
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    aux: AuxSpec = field(default_factory=AuxSpec)
    probe_aux: tuple[str, ...] = within((), AUX_SOURCES)   # extra velocity sources to track
    probe_velocity: bool = True
    max_epochs: int = within(200, "[1, inf)")
    batch_size: int = within(64, "[1, inf)")
    seeds: tuple[int, ...] = within((1,), "[0, inf)")
    dump_velocity: bool = False

    def __post_init__(self):
        # each section checked itself when it was built
        check_fields(self)
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.scheduler.kind == "vloss" and self.dataset.validation_fraction <= 0:
            raise ConfigError(
                "scheduler.kind 'vloss' requires dataset.validation_fraction > 0")
        for needs, on in (("scheduler.kind 'neve'", self.scheduler.kind == "neve"),
                          ("probe_aux", self.probe_aux), ("dump_velocity", self.dump_velocity)):
            if on and not self.probe_velocity:
                raise ConfigError(f"{needs} requires probe_velocity")
        if "heldout" in self.probed_sources() and self.dataset.validation_fraction <= 0:
            raise ConfigError(
                "aux source 'heldout' requires dataset.validation_fraction > 0")

    def probed_sources(self) -> list[str]:
        """The aux sources a run tracks velocity on, sorted; none without probes."""
        return sorted({self.aux.source, *self.probe_aux}) if self.probe_velocity else []

    def scheduler_config(self) -> SchedulerSpec:
        """The scheduler spec ``neve_decide`` reads. Step decay without
        milestones decays at 1/2 and 3/4 of the epoch budget, each epoch
        once and none before epoch 1, so a budget below 4 decays less."""
        s = self.scheduler
        if s.kind != "step_decay" or s.milestones:
            return s
        half, three_quarters = self.max_epochs // 2, (3 * self.max_epochs) // 4
        return dataclasses.replace(
            s, milestones=tuple(m for m in sorted({half, three_quarters}) if m >= 1))

    # These two stay only because the benchmark's tests call them.
    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    def dataset_with(self, **kwargs) -> DatasetSpec:
        return dataclasses.replace(self.dataset, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from nested plain dicts, type-checked as they are
    read, with dotted-key ``overrides`` laid on them; so ``raw`` may be
    incomplete or out of range, and only the result is checked."""
    raw = _from_dict(ExperimentConfig, raw, "", build=False)
    return _from_dict(ExperimentConfig, _layer(raw, overrides or {}), "")


def config_from_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load a JSON config file and build it as ``config_from_dict`` does."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return config_from_dict(raw, overrides)


def merge_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """A copy of ``cfg`` with dotted-key overrides (e.g. "scheduler.epsilon") applied."""
    return _from_dict(ExperimentConfig, _layer(cfg.to_dict(), overrides), "")
