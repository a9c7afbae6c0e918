"""Run orchestration: the train/probe/decide loop, suites and CSV output.

One run: capture an auxiliary snapshot before training, then per epoch
train all batches, snapshot the aux set after the last optimizer step,
turn snapshots into change rates and velocities, and ask the configured
scheduler for a verdict (continue, rescale the learning rate, or stop).
Identical (config, seed) pairs reproduce every recorded number except
wall-clock times, at a fixed BLAS thread count.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import data as data_mod
from ..controller import (RESCALE, STOP, BaselineSchedulerConfig, ControllerConfig,
                          ControllerDecision, baseline_decide, neve_decide)
from ..engine import Optimizer, backward_and_step, build_model, evaluate
from ..errors import ConfigError, NumericError
from ..velocity import VelocityState, change_rate, normalize_capture, velocity_step
from .config import ExperimentConfig
from .svg import line_chart

CSV_HEADER = ("epoch,train_loss,train_acc,test_loss,test_acc,val_loss,"
              "model_velocity,learning_rate,decision,wall_seconds")

_TEST_SEED_OFFSET = 1000003


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
    stop_epochs: tuple               # run length per seed (stop epoch or max)
    mean_acc: float
    std_acc: float
    mean_stop: float
    std_stop: float
    failures: tuple = ()


def load_dataset(spec) -> tuple[data_mod.Dataset, data_mod.Dataset]:
    """Materialize (train, test) datasets for a DatasetSpec."""
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
        train = data_mod.load_idx(spec.train_images, spec.train_labels, name="idx-train")
        test = data_mod.load_idx(spec.test_images, spec.test_labels, name="idx-test")
    else:
        train = data_mod.load_cifar10(list(spec.cifar_train_paths), name="cifar10-train")
        if spec.cifar_test_paths:
            test = data_mod.load_cifar10(list(spec.cifar_test_paths), name="cifar10-test")
        else:
            train, test = data_mod.split(
                train, data_mod.SplitSpec(0.1, spec.split_seed + _TEST_SEED_OFFSET))
    if spec.subset is not None:
        train = train.subset(spec.subset, seed=spec.data_seed)
    if spec.normalize:
        train, test = data_mod.standardize(train, test)
    return train, test


def build_aux_sets(cfg: ExperimentConfig, train, val) -> dict[str, data_mod.AuxSet]:
    """Freeze one AuxSet per requested velocity source."""
    sources = set(cfg.probe_aux)
    if cfg.probe_velocity:
        sources.add(cfg.aux.source)
    aux_sets = {}
    for src in sorted(sources):
        if src == "noise":
            aux_sets[src] = data_mod.make_aux_noise(cfg.aux.count, train.input_shape,
                                                    cfg.aux.seed)
        elif src == "heldout":
            if len(val) == 0:
                raise ConfigError("aux source 'heldout' needs a validation split")
            aux_sets[src] = data_mod.make_aux_from_samples(
                val.samples, min(cfg.aux.count, len(val)), cfg.aux.seed,
                source="heldout_validation")
        else:
            aux_sets[src] = data_mod.make_aux_from_samples(
                train.samples, min(cfg.aux.count, len(train)), cfg.aux.seed,
                source="train")
    return aux_sets


def _controller_config(cfg: ExperimentConfig) -> ControllerConfig:
    s = cfg.scheduler
    return ControllerConfig(epsilon=s.epsilon, alpha=s.alpha, patience=s.patience,
                            plateau_rel_span=s.plateau_rel_span, cooldown=s.cooldown,
                            min_lr=s.min_lr)


def _baseline_config(cfg: ExperimentConfig) -> BaselineSchedulerConfig:
    s = cfg.scheduler
    milestones = s.milestones
    if s.kind == "step_decay" and not milestones:
        # conventional fallback: decay at 1/2 and 3/4 of the budget
        milestones = (cfg.max_epochs // 2, (3 * cfg.max_epochs) // 4)
    return BaselineSchedulerConfig(kind=s.kind, milestones=tuple(milestones),
                                   factor=s.factor, patience=s.vloss_patience,
                                   stop_patience=s.stop_patience)


def _snapshot(model, aux: data_mod.AuxSet, epoch: int):
    _, _, capture = model.forward(aux.samples, capture_probes=True)
    return normalize_capture(capture, epoch)


def run_training(cfg: ExperimentConfig, seed: int, dump_dir=None) -> RunResult:
    """Execute one seeded run of the configured experiment.

    A NumericError mid-run marks the result failed and preserves the
    records accumulated so far.
    """
    cfg.validate()
    train_full, test = load_dataset(cfg.dataset)
    train, val = data_mod.split(
        train_full, data_mod.SplitSpec(cfg.dataset.validation_fraction,
                                       cfg.dataset.split_seed))
    model = build_model(cfg.arch, seed=seed, input_shape=train.input_shape)
    opt = Optimizer(kind=cfg.optimizer.kind, lr=cfg.optimizer.lr,
                    momentum=cfg.optimizer.momentum,
                    weight_decay=cfg.optimizer.weight_decay,
                    betas=cfg.optimizer.betas, eps=cfg.optimizer.eps)
    recipe = data_mod.AugmentRecipe(cfg.dataset.augment)
    sched_kind = cfg.scheduler.kind
    ctrl_cfg = _controller_config(cfg) if sched_kind == "neve" else None
    base_cfg = _baseline_config(cfg) if sched_kind != "neve" else None

    aux_sets = build_aux_sets(cfg, train, val) if cfg.probe_velocity else {}
    primary = cfg.aux.source if cfg.probe_velocity else None
    states = {src: VelocityState.initial(model.n_probed_neurons, cfg.scheduler.mu_vel)
              for src in aux_sets}
    snapshots = {src: _snapshot(model, aux, 0) for src, aux in aux_sets.items()}

    shuffle_rng = np.random.default_rng([seed, 0])
    augment_rng = np.random.default_rng([seed, 1])

    records: list[RunRecord] = []
    decisions: list[ControllerDecision] = []
    val_losses: list[float] = []
    last_rescale_epoch = None
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
                if recipe.kind != "none":
                    xb = data_mod.augment(xb, recipe, augment_rng)
                loss = backward_and_step(model, xb, train.labels[idx], opt)
                loss_sum += loss * len(idx)
            train_loss = loss_sum / len(train)

            v_bar = None
            for src, aux in aux_sets.items():
                snap = _snapshot(model, aux, epoch)
                rho = change_rate(snapshots[src], snap)
                states[src] = velocity_step(states[src], rho)
                snapshots[src] = snap
            if primary is not None:
                v_bar = states[primary].history[-1]
                if dump_dir is not None:
                    _dump_velocity(dump_dir, epoch, states[primary])

            _, train_acc = evaluate(model, train.samples, train.labels)
            test_loss, test_acc = evaluate(model, test.samples, test.labels)
            val_loss = None
            if len(val):
                val_loss, _ = evaluate(model, val.samples, val.labels)
                val_losses.append(val_loss)

            if sched_kind == "neve":
                decision = neve_decide(states[primary].history, ctrl_cfg, opt.lr,
                                       last_rescale_epoch)
            else:
                signals = val_losses if base_cfg.kind == "vloss" else None
                decision = baseline_decide(base_cfg, signals, opt.lr, epoch)
            decisions.append(decision)
            if decision.verdict == RESCALE:
                opt.lr = decision.new_lr
                last_rescale_epoch = epoch
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
        stops.append(result.stop_epoch if result.stop_epoch is not None
                     else result.final.epoch)
    if accs:
        mean_acc, std_acc = float(np.mean(accs)), float(np.std(accs))
        mean_stop, std_stop = float(np.mean(stops)), float(np.std(stops))
    else:
        mean_acc = std_acc = mean_stop = std_stop = float("nan")
    return RunSummary(label=label, seeds=seeds, test_accs=tuple(accs),
                      stop_epochs=tuple(stops), mean_acc=mean_acc, std_acc=std_acc,
                      mean_stop=mean_stop, std_stop=std_stop,
                      failures=tuple(failures))


def run_suite(cfg: ExperimentConfig, seeds=None, label: str | None = None) -> RunSummary:
    """Run every seed independently and aggregate final-test-accuracy and
    run-length statistics."""
    seeds = tuple(seeds if seeds is not None else cfg.seeds)
    if not seeds:
        raise ConfigError("run_suite needs at least one seed")
    results = [run_training(cfg, seed) for seed in seeds]
    return summarize_results(label or cfg.scheduler.kind, seeds, results)


def replay_neve_decisions(velocities, ctrl_cfg: ControllerConfig,
                          initial_lr: float) -> list[ControllerDecision]:
    """Re-derive the decision sequence from a recorded model-velocity
    series; used to audit recorded runs against the pure controller."""
    lr = initial_lr
    last_rescale = None
    out = []
    for t in range(1, len(velocities) + 1):
        decision = neve_decide(velocities[:t], ctrl_cfg, lr, last_rescale)
        out.append(decision)
        if decision.verdict == RESCALE:
            lr = decision.new_lr
            last_rescale = t
        if decision.verdict == STOP:
            break
    return out


def emit_plots(result: RunResult, out_dir, kinds=("velocity", "loss"),
               tag: str = "") -> list:
    """Render run diagnostics as SVG line charts with a stop-epoch marker.

    ``kinds`` selects among "velocity" (per aux source, log scale),
    "loss" (train/test/val) and "lr"; returns the written paths.
    """
    if not result.records:
        raise ConfigError("cannot plot an empty record list")
    out_dir = Path(out_dir)
    epochs = [r.epoch for r in result.records]
    marker = ()
    if result.stop_epoch is not None:
        marker = ((result.stop_epoch, f"stop @ {result.stop_epoch}"),)
    written = []
    for kind in kinds:
        path = out_dir / f"{kind}{tag}.svg"
        if kind == "velocity":
            if not result.velocity_series:
                continue
            series = [(src, list(range(1, len(vs) + 1)), vs)
                      for src, vs in sorted(result.velocity_series.items())]
            line_chart(path, series, title="Model velocity", xlabel="epoch",
                       ylabel="model velocity", log_y=True, vlines=marker)
        elif kind == "loss":
            series = [("train loss", epochs, [r.train_loss for r in result.records]),
                      ("test loss", epochs, [r.test_loss for r in result.records])]
            if result.records[0].val_loss is not None:
                series.append(("val loss", epochs,
                               [r.val_loss for r in result.records]))
            line_chart(path, series, title="Losses", xlabel="epoch",
                       ylabel="cross-entropy", vlines=marker)
        elif kind == "lr":
            line_chart(path, [("learning rate", epochs,
                               [r.learning_rate for r in result.records])],
                       title="Learning rate", xlabel="epoch", ylabel="lr",
                       log_y=True, vlines=marker)
        else:
            raise ConfigError(f"unknown plot kind {kind!r}")
        written.append(path)
    return written


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def records_to_csv(records) -> str:
    """Render records with the fixed CSV schema (header is bit-exact)."""
    if not records:
        raise ConfigError("cannot emit CSV for an empty record list")
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(",".join([
            str(r.epoch), _fmt(r.train_loss), _fmt(r.train_acc), _fmt(r.test_loss),
            _fmt(r.test_acc), _fmt(r.val_loss), _fmt(r.model_velocity),
            _fmt(r.learning_rate), r.decision, _fmt(r.wall_seconds),
        ]) + "\n")
    return buf.getvalue()


def emit_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(records_to_csv(records))
