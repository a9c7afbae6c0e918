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
from pathlib import Path
from typing import get_type_hints

from ..controller import BaselineSchedulerConfig, ControllerConfig
from ..data import digits_max_shift
from ..errors import ConfigError

AUX_SOURCES = ("noise", "heldout", "train")
AUGMENT_KINDS = ("none", "pad_crop_flip")


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
    split is carved out, mirroring a data-scarce regime. ``validate``
    checks the fields, dotted names in its errors, before any output is
    written; the data functions take their values as plain arguments.
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
        if self.subset is not None and self.subset < 1:
            raise ConfigError(f"dataset.subset must be >= 1, got {self.subset}")
        if self.name == "blobs" and self.n_classes < 1:
            raise ConfigError(f"dataset.n_classes must be >= 1, got {self.n_classes}")
        if self.name == "blobs" and self.sigma <= 0:
            raise ConfigError(f"dataset.sigma must be > 0, got {self.sigma}")
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

    def config_for(self, kind: str, milestones: tuple[int, ...]
                   ) -> ControllerConfig | BaselineSchedulerConfig:
        """The scheduler config of ``kind`` built from these fields."""
        if kind == "neve":
            return ControllerConfig(epsilon=self.epsilon, alpha=self.alpha,
                                    patience=self.patience,
                                    plateau_rel_span=self.plateau_rel_span,
                                    cooldown=self.cooldown, min_lr=self.min_lr)
        return BaselineSchedulerConfig(kind=kind, milestones=milestones, factor=self.factor,
                                       patience=self.vloss_patience,
                                       stop_patience=self.stop_patience)

    def validate(self) -> None:
        if self.kind not in ("neve", "fixed", "step_decay", "vloss"):
            raise ConfigError(f"scheduler.kind: unknown scheduler {self.kind!r}")
        # v <- |(1 - rho) - mu * v| must decay while rho = 1, or epsilon never stops a run
        if not 0.0 <= self.mu_vel < 1.0:
            raise ConfigError(f"scheduler.mu_vel must lie in [0, 1), got {self.mu_vel}")
        # The two config types own the ranges. Both are built whatever the
        # kind, because one spec drives every kind in `neve compare`.
        for kind in ("neve", "step_decay"):
            try:
                self.config_for(kind, self.milestones)
            except ConfigError as exc:
                msg = str(exc)
                if kind != "neve" and msg.startswith("patience"):   # it is vloss_patience
                    msg = "vloss_" + msg
                raise ConfigError(f"scheduler.{msg}") from None


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
        if not self.probe_velocity and (self.scheduler.kind == "neve" or self.probe_aux):
            needs = "scheduler.kind 'neve'" if self.scheduler.kind == "neve" else "probe_aux"
            raise ConfigError(f"{needs} requires probe_velocity")
        if "heldout" in self.probed_sources() and self.dataset.validation_fraction <= 0:
            raise ConfigError(
                "aux source 'heldout' requires dataset.validation_fraction > 0")

    def probed_sources(self) -> list[str]:
        """The aux sources a run tracks velocity on, sorted; none without probes."""
        return sorted({self.aux.source, *self.probe_aux}) if self.probe_velocity else []

    def scheduler_config(self) -> ControllerConfig | BaselineSchedulerConfig:
        """The scheduler of the configured kind, for ``neve_decide``. Step
        decay without milestones decays at 1/2 and 3/4 of the epoch budget,
        each epoch once and none before epoch 1, so a budget below 4 decays
        less."""
        s = self.scheduler
        milestones = s.milestones
        if s.kind == "step_decay" and not milestones:
            half, three_quarters = self.max_epochs // 2, (3 * self.max_epochs) // 4
            milestones = tuple(m for m in sorted({half, three_quarters}) if m >= 1)
        return s.config_for(s.kind, tuple(milestones))

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
