"""Checks of the program's outputs, computed apart from the program.

Nothing here calls the package's controller, baseline schedulers, replay
or engine: the decision rules, the velocity recurrence and the forward
pass are re-implemented from their definitions (PAPER.md and the
scheduler docstrings). Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

MU = 0.5
TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Decision rules


def neve_schedule(velocities, lr, *, epsilon, alpha, patience, rel_span,
                  cooldown=None, min_lr=None):
    """(decision, learning rate after it) per epoch of the velocity rule.

    Stop once the model velocity is below epsilon. Otherwise, when the
    last patience + 1 velocities span at most rel_span times their mean
    and at least ``cooldown`` epochs passed since the last rescale,
    multiply the learning rate by alpha (not below min_lr).
    """
    cooldown = patience if cooldown is None else cooldown
    out = []
    last_rescale = None
    for t, v in enumerate(velocities, start=1):
        verdict = "continue"
        if v < epsilon:
            verdict = "stop"
        elif t > patience and (last_rescale is None or t - last_rescale >= cooldown):
            window = velocities[t - patience - 1:t]
            mean = sum(window) / len(window)
            if max(window) - min(window) <= rel_span * mean and not (
                    min_lr is not None and lr <= min_lr):
                lr = alpha * lr if min_lr is None else max(alpha * lr, min_lr)
                verdict = "rescale"
                last_rescale = t
        out.append((verdict, lr))
        if verdict == "stop":
            break
    return out


def step_decay_schedule(epochs, lr, *, milestones, factor):
    out = []
    for t in range(1, epochs + 1):
        if t in milestones:
            lr = factor * lr
            out.append(("rescale", lr))
        else:
            out.append(("continue", lr))
    return out


def vloss_schedule(val_losses, lr, *, factor, patience, stop_patience):
    """Rescale after ``patience`` epochs without a new best validation loss
    (counting again from the rescale); stop after ``stop_patience``."""
    out = []
    best = math.inf
    since_best = since_rescale = 0
    for val in val_losses:
        if val < best:
            best = val
            since_best = since_rescale = 0
        else:
            since_best += 1
            since_rescale += 1
        if since_best >= stop_patience:
            out.append(("stop", lr))
            break
        if since_rescale >= patience:
            lr = factor * lr
            since_rescale = 0
            out.append(("rescale", lr))
        else:
            out.append(("continue", lr))
    return out


def expected_schedule(cfg, velocities, val_losses):
    """Decisions the configured scheduler must have made on these signals."""
    s = cfg.scheduler
    lr0 = cfg.optimizer.lr
    if s.kind == "neve":
        return neve_schedule(velocities, lr0, epsilon=s.epsilon, alpha=s.alpha,
                             patience=s.patience, rel_span=s.plateau_rel_span,
                             cooldown=s.cooldown, min_lr=s.min_lr)
    if s.kind == "vloss":
        return vloss_schedule(val_losses, lr0, factor=s.factor,
                              patience=s.vloss_patience, stop_patience=s.stop_patience)
    if s.kind == "step_decay":
        milestones = tuple(s.milestones) or (cfg.max_epochs // 2, 3 * cfg.max_epochs // 4)
        return step_decay_schedule(len(val_losses), lr0, milestones=milestones,
                                   factor=s.factor)
    return [("continue", lr0)] * len(val_losses)


def check_decisions(cfg, rows) -> list[str]:
    """``rows`` are per-epoch (model_velocity, val_loss, decision, lr) tuples
    as logged; the decision and lr columns must follow from the signals."""
    velocities = [r[0] for r in rows]
    val_losses = [r[1] for r in rows]
    expected = expected_schedule(cfg, velocities, val_losses)
    problems = []
    if len(expected) < len(rows):
        problems.append(f"run continued after the rule stopped at epoch {len(expected)}")
    for epoch, (row, (verdict, lr)) in enumerate(zip(rows, expected), start=1):
        if (row[2], row[3]) != (verdict, lr):
            problems.append(f"epoch {epoch}: logged {row[2]}/lr={row[3]!r}, "
                            f"rule gives {verdict}/lr={lr!r}")
            break
    last = expected[-1][0] if expected else None
    if last != "stop" and len(rows) != cfg.max_epochs:
        problems.append(f"run ended at epoch {len(rows)} without a stop "
                        f"(budget {cfg.max_epochs})")
    return problems


# ---------------------------------------------------------------------------
# Velocity dumps


def check_velocity_dumps(dump_dir, model_velocities) -> list[str]:
    """Each ``velocity_epochNNNN.csv`` must hold rho in [-1, 1] and velocities
    following v_t = |(1 - rho_t) - MU * v_{t-1}| from v_0 = 0, whose mean is
    the logged model velocity of that epoch."""
    dump_dir = Path(dump_dir)
    files = sorted(dump_dir.glob("velocity_epoch*.csv"))
    if len(files) != len(model_velocities):
        return [f"{dump_dir.name}: {len(files)} velocity dumps for "
                f"{len(model_velocities)} epochs"]
    v_prev = None
    for epoch, (path, logged) in enumerate(zip(files, model_velocities), start=1):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        ids, rho, v = data[:, 0], data[:, 1], data[:, 2]
        if v_prev is None:
            v_prev = np.zeros_like(v)
        if path.name != f"velocity_epoch{epoch:04d}.csv" or not np.array_equal(
                ids, np.arange(len(ids))):
            return [f"{path.name}: unexpected file name or neuron ids"]
        if v.shape != v_prev.shape:
            return [f"{path.name}: neuron count changed"]
        if np.any(np.abs(rho) > 1.0):
            return [f"{path.name}: change rate outside [-1, 1]"]
        gap = np.max(np.abs(v - np.abs((1.0 - rho) - MU * v_prev)))
        if gap > TOLERANCE:
            return [f"{path.name}: velocity recurrence off by {gap:.3g}"]
        if abs(v.mean() - logged) > TOLERANCE:
            return [f"{path.name}: mean velocity {v.mean()!r} != logged {logged!r}"]
        v_prev = v
    return []


def read_run_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def csv_rows(records_csv) -> list[tuple]:
    """(model_velocity, val_loss, decision, lr) per epoch of a run CSV."""
    def num(text):
        return float(text) if text else None
    return [(num(r["model_velocity"]), num(r["val_loss"]), r["decision"],
             float(r["learning_rate"])) for r in records_csv]


def record_rows(records) -> list[tuple]:
    return [(r.model_velocity, r.val_loss, r.decision, r.learning_rate) for r in records]


# ---------------------------------------------------------------------------
# Forward pass from the returned parameters


def _conv(x, w, b, stride, pad):
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                    # (b, c, oh, ow, k, k)
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # (b, oh, ow, f)
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def logits_of(model, samples, chunk=250):
    """Logits from the model's parameters, computed layer by layer here."""
    outs = []
    for start in range(0, len(samples), chunk):
        x = samples[start:start + chunk]
        for layer in model.layers:
            kind = type(layer).__name__
            if kind == "Dense":
                x = x.reshape(len(x), -1) @ layer.params["W"] + layer.params["b"]
            elif kind == "Conv2d":
                x = _conv(x, layer.params["W"], layer.params["b"], layer.stride, layer.pad)
            elif kind == "ReLU":
                x = np.maximum(x, 0.0)
            elif kind == "Flatten":
                x = x.reshape(len(x), -1)
            else:
                raise ValueError(f"no reference forward for layer {kind}")
        outs.append(x)
    return np.concatenate(outs)


def check_final_test(model, test, logged_loss, logged_acc) -> list[str]:
    """Final test loss and accuracy recomputed from the final parameters.

    A sample whose two largest logits are within 1e-9 may flip class on
    the last bits of the arithmetic; only those may disagree."""
    logits = logits_of(model, test.samples)
    z = logits - logits.max(axis=1, keepdims=True)
    nll = np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(z)), test.labels]
    loss = float(nll.mean())
    correct = logits.argmax(axis=1) == test.labels
    top2 = np.sort(logits, axis=1)[:, -2:]
    ambiguous = int(np.sum(top2[:, 1] - top2[:, 0] < 1e-9))
    problems = []
    if abs(loss - logged_loss) > 1e-9 * max(1.0, abs(loss)):
        problems.append(f"test loss {logged_loss!r} logged, {loss!r} recomputed")
    if abs(correct.mean() - logged_acc) * len(correct) > ambiguous + 1e-6:
        problems.append(f"test accuracy {logged_acc!r} logged, {correct.mean()!r} recomputed")
    return problems


# ---------------------------------------------------------------------------
# Epsilon sweep


_COMPARED = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc", "val_loss",
             "model_velocity")


def check_epsilon_pair(lo, hi) -> list[str]:
    """``lo`` and ``hi``: the records of one seed's runs at a smaller and a
    larger epsilon. The larger-epsilon run must stop no later and replay
    the smaller-epsilon run up to its last row (compared without the wall
    time, and without the decision and lr on that last row)."""
    if len(hi) > len(lo):
        return [f"larger epsilon ran {len(hi)} epochs, smaller {len(lo)}"]
    for i, (a, b) in enumerate(zip(hi, lo)):
        fields = _COMPARED if i == len(hi) - 1 else _COMPARED + ("decision", "learning_rate")
        if any(getattr(a, f) != getattr(b, f) for f in fields):
            return [f"larger-epsilon run diverges at epoch {i + 1}"]
    return []


def check_summary(path, groups) -> list[str]:
    """A ``summary.csv``-style file holds one row per group of runs, in
    order, with the mean final test accuracy of that group."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(groups):
        return [f"{Path(path).name}: {len(rows)} rows for {len(groups)} groups"]
    for row, accs in zip(rows, groups):
        if abs(float(row["mean_test_acc"]) - float(np.mean(accs))) > TOLERANCE:
            return [f"{Path(path).name}: {row['label']} mean accuracy "
                    f"{row['mean_test_acc']} != {float(np.mean(accs))!r}"]
    return []
