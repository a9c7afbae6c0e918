"""Experiment configuration: nested specs, JSON files and flag overrides.

A config arrives as a JSON file, a plain dict, or CLI flags layered on
top of either; unknown keys and out-of-range values raise ConfigError
naming the offending field. The fully resolved config is echoed into the
output directory for provenance.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from typing import get_type_hints

from ..data import AUGMENT_KINDS
from ..errors import ConfigError

AUX_SOURCES = ("noise", "heldout", "train")


@functools.cache
def field_types(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass (shared; read only)."""
    return get_type_hints(cls)


def _from_dict(cls, raw: dict, prefix: str):
    """Build ``cls`` from plain dicts, recursing into nested specs.

    The field annotations drive the conversion: JSON lists become tuples,
    except where a field is annotated ``object`` (``arch`` keeps its list
    of layer dicts). Unknown keys raise ConfigError naming the dotted field.
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
            value = _from_dict(hint, value, f"{prefix}{key}.")
        elif isinstance(value, list) and hint is not object:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class DatasetSpec:
    """What to train on and how to slice it.

    ``subset`` caps the training set (stratified) before the validation
    split is carved out, mirroring a data-scarce regime.
    """

    name: str = "blobs"                  # blobs | digits | idx | cifar10
    subset: int | None = None
    validation_fraction: float = 0.0
    split_seed: int = 0
    augment: str = "none"                # one of AUGMENT_KINDS
    normalize: bool = False
    data_seed: int = 0
    # synthetic generator knobs
    n_samples: int = 2000
    n_classes: int = 4
    sigma: float = 0.5
    noise: float = 0.25
    shift: int = 2
    test_samples: int = 1000
    # file-backed datasets
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    cifar_train_paths: tuple = ()
    cifar_test_paths: tuple = ()

    def validate(self) -> None:
        if self.name not in ("blobs", "digits", "idx", "cifar10"):
            raise ConfigError(f"dataset.name: unknown dataset {self.name!r}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError(
                f"dataset.validation_fraction must lie in [0, 1), "
                f"got {self.validation_fraction}")
        if self.augment not in AUGMENT_KINDS:
            raise ConfigError(
                f"dataset.augment must be one of {AUGMENT_KINDS}, got {self.augment!r}")
        if self.name == "idx":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                if getattr(self, key) is None:
                    raise ConfigError(f"dataset.{key} is required for the idx dataset")
        if self.name == "cifar10" and not self.cifar_train_paths:
            raise ConfigError("dataset.cifar_train_paths is required for cifar10")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "sgd"
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8

    def validate(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"optimizer.kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr < 0:
            raise ConfigError(f"optimizer.lr must be non-negative, got {self.lr}")


@dataclass(frozen=True)
class SchedulerSpec:
    """Exactly one scheduler drives the run: neve, fixed, step_decay or vloss."""

    kind: str = "neve"
    # velocity controller
    epsilon: float = 1e-3
    alpha: float = 0.1
    patience: int = 5
    mu_vel: float = 0.5
    plateau_rel_span: float = 0.05
    cooldown: int | None = None
    min_lr: float | None = None
    # step decay
    milestones: tuple[int, ...] = ()
    factor: float = 0.1
    # validation-loss scheduler
    vloss_patience: int = 5
    stop_patience: int = 10

    def validate(self) -> None:
        if self.kind not in ("neve", "fixed", "step_decay", "vloss"):
            raise ConfigError(f"scheduler.kind: unknown scheduler {self.kind!r}")


@dataclass(frozen=True)
class AuxSpec:
    source: str = "noise"    # noise | heldout | train
    count: int = 100
    seed: int = 0

    def validate(self) -> None:
        if self.source not in AUX_SOURCES:
            raise ConfigError(
                f"aux.source must be one of {AUX_SOURCES}, got {self.source!r}")
        if self.count < 1:
            raise ConfigError(f"aux.count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: object = "mlp:2-64-64-4"        # shorthand string or layer dict list
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    aux: AuxSpec = field(default_factory=AuxSpec)
    probe_aux: tuple[str, ...] = ()       # extra velocity sources to track
    probe_velocity: bool = True
    max_epochs: int = 200
    batch_size: int = 64
    seeds: tuple[int, ...] = (1,)
    out_dir: str | None = None
    dump_velocity: bool = False

    def validate(self) -> None:
        self.dataset.validate()
        self.optimizer.validate()
        self.scheduler.validate()
        self.aux.validate()
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        for src in self.probe_aux:
            if src not in AUX_SOURCES:
                raise ConfigError(
                    f"probe_aux entries must be one of {AUX_SOURCES}, got {src!r}")
        if self.scheduler.kind == "vloss" and self.dataset.validation_fraction <= 0:
            raise ConfigError(
                "scheduler.kind 'vloss' requires dataset.validation_fraction > 0")
        if self.scheduler.kind == "neve" and not self.probe_velocity:
            raise ConfigError("scheduler.kind 'neve' requires probe_velocity")
        sources = set(self.probe_aux)
        if self.probe_velocity:
            sources.add(self.aux.source)
        if "heldout" in sources and self.dataset.validation_fraction <= 0:
            raise ConfigError(
                "aux source 'heldout' requires dataset.validation_fraction > 0")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    def dataset_with(self, **kwargs) -> DatasetSpec:
        return dataclasses.replace(self.dataset, **kwargs)

    def optimizer_with(self, **kwargs) -> OptimizerSpec:
        return dataclasses.replace(self.optimizer, **kwargs)

    def scheduler_with(self, **kwargs) -> SchedulerSpec:
        return dataclasses.replace(self.scheduler, **kwargs)

    def aux_with(self, **kwargs) -> AuxSpec:
        return dataclasses.replace(self.aux, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from nested plain dicts."""
    cfg = _from_dict(ExperimentConfig, raw, "")
    cfg.validate()
    return cfg


def config_from_file(path) -> ExperimentConfig:
    """Load a JSON config file."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return config_from_dict(raw)


def merge_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Layer dotted-key overrides (e.g. "scheduler.epsilon") onto a config."""
    raw = cfg.to_dict()
    for key, value in overrides.items():
        if value is None:
            continue
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node:
                raise ConfigError(f"unknown config field {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config field {key!r}")
        node[parts[-1]] = value
    return config_from_dict(raw)
