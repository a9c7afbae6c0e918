"""Per-epoch training decisions: one pure fold serves every scheduler kind.

``neve_decide(sched, state, signal, lr) -> (state, decision)`` folds one
epoch's signal into an immutable ``SchedulerState`` and decides: continue,
rescale the learning rate, or stop. ``sched`` is a ``SchedulerSpec``, the
one scheduler config. neve reads the model velocity: it stops once the
velocity falls below ``epsilon``, and otherwise rescales the learning rate
when the velocity has plateaued; stop takes precedence over a rescale.
vloss reads the validation loss, while step_decay and fixed ignore the
signal.

Also provided: the closed-form analysis of how much a softmax output can
move when the head's velocity sits exactly at epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_fields, check_value, within


@dataclass(frozen=True)
class SchedulerSpec:
    """Exactly one scheduler drives the run: neve, fixed, step_decay or vloss.
    Building one checks every field whatever the kind, because one spec
    drives every kind in ``neve compare``. A ``cooldown`` of None means
    ``patience``, and a ``min_lr`` of None sets no floor."""

    kind: str = within("neve", ("neve", "fixed", "step_decay", "vloss"))
    # velocity controller
    epsilon: float = within(1e-3, "(0, inf)")
    alpha: float = within(0.1, "(0, 1)")
    patience: int = within(5, "[1, inf)")
    plateau_rel_span: float = within(0.05, "(0, 1)")
    cooldown: int | None = within(None, "[0, inf)")
    min_lr: float | None = within(None, "[0, inf)")
    # step decay; epochs count from 1, so an earlier milestone never fires
    milestones: tuple[int, ...] = within((), "[1, inf)")
    factor: float = within(0.1, "(0, 1)")
    # validation-loss scheduler
    vloss_patience: int = within(5, "[1, inf)")
    stop_patience: int = within(10, "[1, inf)")

    def __post_init__(self):
        check_fields(self, "scheduler.")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(
                f"scheduler.milestones must be strictly increasing: {self.milestones}")


# These aliases and baseline_decide stay only because the benchmark's tests import them.
ControllerConfig = SchedulerSpec


def BaselineSchedulerConfig(kind: str, patience: int = 5, **fields) -> SchedulerSpec:
    return SchedulerSpec(kind=kind, vloss_patience=patience, **fields)


CONTINUE = "continue"
RESCALE = "rescale"
STOP = "stop"


@dataclass(frozen=True)
class ControllerDecision:
    """Verdict for one epoch: continue, rescale (with the new lr) or stop."""

    verdict: str
    epoch: int
    reason: str = ""
    new_lr: float | None = None


class SchedulerState(NamedTuple):
    """What a scheduler carries between epochs, as an immutable record of
    plain numbers; ``SchedulerState()`` starts a run. ``window``: the last
    patience+1 model velocities (neve); ``best`` and the waits since an
    improvement (``rescale_wait`` also resets on a rescale): vloss."""

    epoch: int = 0
    window: tuple[float, ...] = ()
    last_rescale: int | None = None
    best: float = math.inf
    rescale_wait: int = 0
    stop_wait: int = 0


def _rescale(state, reason: str, new_lr: float):
    return (state._replace(last_rescale=state.epoch),
            ControllerDecision(RESCALE, state.epoch, reason, new_lr=new_lr))


# Named for the velocity controller: the benchmark tracer times decisions under this name.
def neve_decide(sched, state: SchedulerState, signal,
                lr: float) -> tuple[SchedulerState, ControllerDecision]:
    """Fold one epoch into ``state`` and decide; returns ``(state, decision)``.

    ``sched`` is a ``SchedulerSpec``: neve reads ``epsilon``, ``alpha``,
    ``patience``, ``plateau_rel_span``, ``cooldown`` and ``min_lr``; vloss
    reads ``vloss_patience``, ``stop_patience`` and ``factor``; step_decay
    reads ``milestones`` and ``factor``; fixed reads none. ``signal`` is the
    epoch's model velocity (neve) or validation loss (vloss), ignored by
    fixed and step_decay; ``lr`` is the epoch's rate.
    """
    kind, epoch = sched.kind, state.epoch + 1
    if signal is None and kind in ("neve", "vloss"):
        raise ConfigError(f"the {kind} scheduler needs a signal at every epoch")

    if kind == "neve":
        window = (*state.window, signal)[-(sched.patience + 1):]
        state = state._replace(epoch=epoch, window=window)
        if signal < sched.epsilon:
            return state, ControllerDecision(
                STOP, epoch, f"model velocity {signal:.6g} < epsilon {sched.epsilon:.6g}")
        cooldown = sched.patience if sched.cooldown is None else sched.cooldown
        cooled = state.last_rescale is None or epoch - state.last_rescale >= cooldown
        if len(window) == sched.patience + 1 and cooled:
            span = max(window) - min(window)
            mean = sum(window) / len(window)
            if span <= sched.plateau_rel_span * mean:
                if sched.min_lr is not None and lr <= sched.min_lr:
                    return state, ControllerDecision(
                        CONTINUE, epoch, f"plateau but lr already at floor {sched.min_lr:g}")
                new_lr = sched.alpha * lr
                if sched.min_lr is not None:
                    new_lr = max(new_lr, sched.min_lr)
                return _rescale(state, f"velocity plateau: span {span:.6g} <= "
                                       f"{sched.plateau_rel_span:g} * mean {mean:.6g}", new_lr)
    elif kind == "vloss":
        if signal < state.best:
            state = state._replace(epoch=epoch, best=signal, rescale_wait=0, stop_wait=0)
        else:
            state = state._replace(epoch=epoch, rescale_wait=state.rescale_wait + 1,
                                   stop_wait=state.stop_wait + 1)
        if state.stop_wait >= sched.stop_patience:
            return state, ControllerDecision(
                STOP, epoch, f"validation loss flat for {state.stop_wait} epochs")
        if state.rescale_wait >= sched.vloss_patience:
            return _rescale(state._replace(rescale_wait=0),
                            f"validation loss flat for {state.rescale_wait} epochs",
                            sched.factor * lr)
    else:
        state = state._replace(epoch=epoch)
        if kind == "step_decay" and epoch in sched.milestones:
            return _rescale(state, f"step-decay milestone at epoch {epoch}", sched.factor * lr)
    return state, ControllerDecision(CONTINUE, epoch)


def baseline_decide(cfg: SchedulerSpec, signals, lr: float,
                    epoch: int) -> ControllerDecision:
    """Decision of a reference scheduler at ``epoch``, folded from epoch 1.
    ``signals`` is the per-epoch validation-loss series (epoch 1 first),
    required for the vloss kind and ignored otherwise."""
    if epoch < 1:
        raise ConfigError(f"epoch must be >= 1, got {epoch}")
    if cfg.kind != "vloss":
        signals = [None] * epoch
    elif signals is None or len(signals) < epoch:
        raise ConfigError(
            "vloss scheduler needs a validation-loss series covering every epoch")
    state = SchedulerState()
    for t in range(epoch):
        state, decision = neve_decide(cfg, state, signals[t], lr)
    return decision


def replay_neve_decisions(signals, sched, initial_lr: float) -> list[ControllerDecision]:
    """Re-derive a run's decisions by folding its recorded per-epoch signal
    series; used to audit recorded runs against the pure step."""
    state, lr, out = SchedulerState(), initial_lr, []
    for signal in signals:
        state, decision = neve_decide(sched, state, signal, lr)
        out.append(decision)
        if decision.verdict == RESCALE:
            lr = decision.new_lr
        elif decision.verdict == STOP:
            break
    return out


@dataclass(frozen=True)
class EpsilonAnalysis:
    """Worst-case softmax output variation when the head velocity is epsilon."""

    epsilon: float
    p_star: float      # argmax probability: (1 - eps)^(1/eps)
    max_delta: float   # p_star * ((1 - eps)^(-1) - 1)


def softmax_delta(p: float, epsilon: float) -> float:
    """Output variation ``p * (p^(-eps) - 1)`` of a softmax entry at
    probability ``p`` whose velocity equals ``epsilon``."""
    check_value("p", p, "(0, 1]")
    check_value("epsilon", epsilon, "(0, 1)")
    # p^(-eps) - 1 == expm1(-eps * ln p), accurate for small eps
    return p * math.expm1(-epsilon * math.log(p))


def epsilon_analysis(epsilon: float) -> EpsilonAnalysis:
    """Closed-form maximizer of softmax_delta over p in (0, 1)."""
    check_value("epsilon", epsilon, "(0, 1)")
    # (1 - eps)^(1/eps) via exp(log1p(-eps)/eps) keeps small-eps accuracy
    p_star = math.exp(math.log1p(-epsilon) / epsilon)
    max_delta = p_star * (epsilon / (1.0 - epsilon))
    return EpsilonAnalysis(epsilon, p_star, max_delta)
