"""Run orchestration: the train/probe/decide loop, summaries and CSV output.

One run: capture an auxiliary snapshot before training, then per epoch
train all batches (through ``data.augment`` when ``dataset.augment`` is
``pad_crop_flip``), evaluate, snapshot the aux set after the last
optimizer step, turn snapshots into change rates and velocities, and ask
the configured scheduler for a verdict (continue, rescale the learning
rate, or stop). Evaluation comes first, so an epoch whose evaluation or
snapshot raises leaves no velocity entry, dump file or record.
Identical (config, seed) pairs reproduce every recorded number except
wall-clock times, at a fixed BLAS thread count.
"""

from __future__ import annotations

import csv
import io
import os
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .. import data as data_mod
from ..controller import RESCALE, STOP, ControllerDecision, SchedulerState, neve_decide
from ..engine import Optimizer, backward_and_step, build_model, evaluate
from ..errors import ConfigError, NumericError
from ..velocity import VelocityState, change_rate, normalize_capture, velocity_step
from .config import ExperimentConfig
from .svg import line_chart

_TEST_SEED_OFFSET = 1000003

# (key, (train, test)) of the most recent load_dataset call
_last_load = (None, None)


@dataclass(frozen=True)
class RunRecord:
    """One epoch's metrics row."""

    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    val_loss: float | None
    model_velocity: float | None
    learning_rate: float
    decision: str
    wall_seconds: float


# the per-epoch CSV schema: one column per RunRecord field, in field order
CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


@dataclass
class RunResult:
    seed: int
    records: list
    decisions: list
    velocity_series: dict            # aux source -> model-velocity list
    primary_source: str | None
    stop_epoch: int | None           # None when the run hit max_epochs
    failed: bool = False
    error: str = ""
    model: object = None

    @property
    def final(self) -> RunRecord:
        return self.records[-1]


@dataclass(frozen=True)
class RunSummary:
    """Across-seed statistics; std is the population standard deviation
    (reported as 0 for a single seed)."""

    label: str
    seeds: tuple
    test_accs: tuple
    mean_acc: float
    std_acc: float
    mean_stop: float
    std_stop: float
    failures: tuple = ()


def load_dataset(spec) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    """Materialize (train, test) datasets for a DatasetSpec.

    The last loaded pair is kept and returned again for an equal spec, so
    a suite's runs build their data once. Fields read only after loading
    (``validation_fraction``, ``augment``) are not part of the key; for
    file-backed datasets each file's size and modification time are. The
    pair's sample and label arrays are read-only.
    """
    global _last_load
    stats = [os.stat(path) for _, path in spec.files()]
    # a dict, not a replaced spec, which would check itself again on every run
    key = (dict(vars(spec), validation_fraction=0.0, augment="none"),
           [(st.st_size, st.st_mtime_ns) for st in stats])
    if _last_load[0] == key:
        return _last_load[1]
    if spec.name == "blobs":
        train = data_mod.gen_blobs(spec.n_samples, spec.n_classes, sigma=spec.sigma,
                                   seed=spec.data_seed)
        test = data_mod.gen_blobs(spec.test_samples, spec.n_classes, sigma=spec.sigma,
                                  seed=spec.data_seed + _TEST_SEED_OFFSET)
    elif spec.name == "digits":
        train = data_mod.gen_digits(spec.n_samples, seed=spec.data_seed,
                                    noise=spec.noise, shift=spec.shift)
        test = data_mod.gen_digits(spec.test_samples, seed=spec.data_seed + _TEST_SEED_OFFSET,
                                   noise=spec.noise, shift=spec.shift)
    elif spec.name == "idx":
        # named by their label files, which set each split's class count
        train = data_mod.load_idx(spec.train_images, spec.train_labels,
                                  name=str(spec.train_labels))
        test = data_mod.load_idx(spec.test_images, spec.test_labels,
                                 name=str(spec.test_labels))
    else:
        train = data_mod.load_cifar10(spec.cifar_train_paths, name="cifar10-train")
        if spec.cifar_test_paths:
            test = data_mod.load_cifar10(spec.cifar_test_paths, name="cifar10-test")
        else:
            train, test = data_mod.split(train, 0.1, _TEST_SEED_OFFSET)
    if spec.subset is not None:
        train = train.subset(spec.subset, seed=spec.data_seed)
    if spec.normalize:
        train, test = data_mod.standardize(train, test)
    for ds in (train, test):
        ds.samples.flags.writeable = False
        ds.labels.flags.writeable = False
    _last_load = (key, (train, test))
    return train, test


def load_checked(cfg: ExperimentConfig, seed: int = 0):
    """(train, val, test, model); a ConfigError naming the field unless both
    splits' class count fits the head, ``pad_crop_flip`` gets (c, h, w)
    samples, and the validation split leaves each class in the train part
    and holds out samples when the vloss scheduler or a ``heldout`` probe reads them."""
    train, test = load_dataset(cfg.dataset)
    model = build_model(cfg.arch, seed=seed, input_shape=train.input_shape)
    if test.n_classes != train.n_classes or train.n_classes > model.n_classes:
        raise ConfigError(f"the train split ({train.name}) has {train.n_classes} classes and the "
                          f"test split ({test.name}) has {test.n_classes}; they must agree and "
                          f"fit the {model.n_classes}-way model head")
    if cfg.dataset.augment == "pad_crop_flip" and len(train.input_shape) != 3:
        raise ConfigError("dataset.augment 'pad_crop_flip' needs (c, h, w) samples, got "
                          f"shape {train.input_shape}")
    frac = cfg.dataset.validation_fraction
    try:
        train, val = data_mod.split(train, frac)
    except ConfigError as exc:
        raise ConfigError(f"dataset.{exc}") from exc
    reader = ("the vloss scheduler" if cfg.scheduler.kind == "vloss" else
              "aux source 'heldout'" if "heldout" in cfg.probed_sources() else None)
    if reader and len(val) == 0:
        raise ConfigError(f"dataset.validation_fraction {frac} holds out none of "
                          f"{len(train)} samples, but {reader} reads them")
    return train, val, test, model


def build_aux_sets(cfg: ExperimentConfig, train, val) -> dict[str, data_mod.AuxSet]:
    """Freeze one AuxSet per requested velocity source."""
    aux_sets = {}
    for src in cfg.probed_sources():
        if src == "noise":
            aux_sets[src] = data_mod.make_aux_noise(cfg.aux.count, train.input_shape,
                                                    cfg.aux.seed)
        else:
            pool = val if src == "heldout" else train
            aux_sets[src] = data_mod.make_aux_from_samples(
                pool.samples, min(cfg.aux.count, len(pool)), cfg.aux.seed)
    return aux_sets


def _snapshot(model, aux: data_mod.AuxSet, epoch: int):
    _, _, capture = model.forward(aux.samples, capture_probes=True)
    return normalize_capture(capture, epoch)


def run_training(cfg: ExperimentConfig, seed: int, dump_dir=None) -> RunResult:
    """Execute one seeded run of the configured experiment.

    A NumericError mid-run marks the result failed and preserves the
    records accumulated so far.
    """
    train, val, test, model = load_checked(cfg, seed)
    opt = Optimizer(cfg.optimizer)
    sched = cfg.scheduler_config()
    sched_state = SchedulerState()

    aux_sets = build_aux_sets(cfg, train, val)
    primary = cfg.aux.source if cfg.probe_velocity else None
    states = {src: VelocityState.initial(model.n_probed_neurons, cfg.scheduler.mu_vel)
              for src in aux_sets}
    snapshots = {src: _snapshot(model, aux, 0) for src, aux in aux_sets.items()}

    shuffle_rng = np.random.default_rng([seed, 0])
    augment_rng = np.random.default_rng([seed, 1])

    records: list[RunRecord] = []
    decisions: list[ControllerDecision] = []
    stop_epoch = None
    failed, error = False, ""

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            t0 = time.perf_counter()
            perm = shuffle_rng.permutation(len(train))
            loss_sum = 0.0
            for start in range(0, len(train), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                xb = train.samples[idx]
                if cfg.dataset.augment == "pad_crop_flip":
                    xb = data_mod.augment(xb, augment_rng)
                loss = backward_and_step(model, xb, train.labels[idx], opt)
                loss_sum += loss * len(idx)
            train_loss = loss_sum / len(train)

            _, train_acc = evaluate(model, train.samples, train.labels)
            test_loss, test_acc = evaluate(model, test.samples, test.labels)
            val_loss = None
            if len(val):
                val_loss, _ = evaluate(model, val.samples, val.labels)

            # every source's snapshot is taken before any velocity advances
            new_snapshots = {src: _snapshot(model, aux, epoch) for src, aux in aux_sets.items()}
            for src, snap in new_snapshots.items():
                states[src] = velocity_step(states[src], change_rate(snapshots[src], snap))
            snapshots = new_snapshots
            v_bar = states[primary].history[-1] if primary is not None else None
            if v_bar is not None and dump_dir is not None:
                _dump_velocity(dump_dir, epoch, states[primary])

            signal = v_bar if sched.kind == "neve" else val_loss
            sched_state, decision = neve_decide(sched, sched_state, signal, opt.lr)
            decisions.append(decision)
            if decision.verdict == RESCALE:
                opt.lr = decision.new_lr
            records.append(RunRecord(
                epoch=epoch, train_loss=train_loss, train_acc=train_acc,
                test_loss=test_loss, test_acc=test_acc, val_loss=val_loss,
                model_velocity=v_bar, learning_rate=opt.lr,
                decision=decision.verdict,
                wall_seconds=time.perf_counter() - t0))
            if decision.verdict == STOP:
                stop_epoch = epoch
                break
    except NumericError as exc:
        failed, error = True, str(exc)
    model.release_buffers()   # the result keeps the model, not its inference buffers

    series = {src: list(state.history) for src, state in states.items()}
    return RunResult(seed=seed, records=records, decisions=decisions,
                     velocity_series=series, primary_source=primary,
                     stop_epoch=stop_epoch, failed=failed, error=error, model=model)


def _dump_velocity(dump_dir, epoch: int, state: VelocityState) -> None:
    path = dump_dir / f"velocity_epoch{epoch:04d}.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["neuron_id", "rho", "v"])
        for i, (r, v) in enumerate(zip(state.rho, state.v)):
            writer.writerow([i, repr(float(r)), repr(float(v))])


def summarize_results(label: str, seeds: tuple, results) -> RunSummary:
    """Aggregate per-seed results; failed seeds are excluded from the
    statistics (with a warning) but reported in the summary."""
    accs, stops, failures = [], [], []
    for seed, result in zip(seeds, results):
        if result.failed or not result.records:
            failures.append((seed, result.error or "no records produced"))
            warnings.warn(f"seed {seed} failed: {result.error}", stacklevel=2)
            continue
        accs.append(result.final.test_acc)
        stops.append(result.final.epoch)
    if accs:
        mean_acc, std_acc = float(np.mean(accs)), float(np.std(accs))
        mean_stop, std_stop = float(np.mean(stops)), float(np.std(stops))
    else:
        mean_acc = std_acc = mean_stop = std_stop = float("nan")
    return RunSummary(label=label, seeds=seeds, test_accs=tuple(accs), mean_acc=mean_acc,
                      std_acc=std_acc, mean_stop=mean_stop, std_stop=std_stop,
                      failures=tuple(failures))


def emit_plots(result: RunResult, out_dir, tag: str = "") -> list:
    """Render ``velocity<tag>.svg`` (per aux source, log scale; only when
    the run probed and some velocity is positive) and ``loss<tag>.svg``
    (train/test/val) with a stop-epoch marker; returns the written paths."""
    if not result.records:
        raise ConfigError("cannot plot an empty record list")
    out_dir = Path(out_dir)
    epochs = [r.epoch for r in result.records]
    marker = ()
    if result.stop_epoch is not None:
        marker = ((result.stop_epoch, f"stop @ {result.stop_epoch}"),)
    written = []
    if result.velocity_series:
        series = [(src, list(range(1, len(vs) + 1)), vs)
                  for src, vs in sorted(result.velocity_series.items())]
        path = out_dir / f"velocity{tag}.svg"
        if line_chart(path, series, title="Model velocity", xlabel="epoch",
                      ylabel="model velocity", log_y=True, vlines=marker):
            written.append(path)
    series = [("train loss", epochs, [r.train_loss for r in result.records]),
              ("test loss", epochs, [r.test_loss for r in result.records])]
    if result.records[0].val_loss is not None:
        series.append(("val loss", epochs, [r.val_loss for r in result.records]))
    path = out_dir / f"loss{tag}.svg"
    if line_chart(path, series, title="Losses", xlabel="epoch",
                  ylabel="cross-entropy", vlines=marker):
        written.append(path)
    return written


def _fmt(value, kind: str) -> str:
    if kind in ("int", "str"):
        return str(value)
    return "" if value is None else repr(float(value))


def records_to_csv(records) -> str:
    """Render records with the fixed CSV schema (header is bit-exact)."""
    if not records:
        raise ConfigError("cannot emit CSV for an empty record list")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(",".join(_fmt(getattr(r, f.name), f.type) for f in fields(r)) + "\n")
    return buf.getvalue()


def emit_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(records_to_csv(records))
