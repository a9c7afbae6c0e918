"""Per-epoch training decisions driven by the model-velocity signal.

The controller inspects the model-velocity history after every epoch:
it stops the run once the velocity falls below the threshold epsilon,
and otherwise rescales the learning rate by alpha when the velocity has
plateaued (relative span of the last patience+1 entries within a small
fraction of their mean). Stop always takes precedence over a rescale.

Also provided: the closed-form analysis of how much a softmax output can
move when the head's velocity sits exactly at epsilon, and the reference
schedulers (fixed, step decay, validation-loss) used for comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the velocity controller.

    cooldown defaults to ``patience`` when left as None; min_lr is an
    optional floor below which no further rescale is issued.
    """

    epsilon: float = 1e-3
    alpha: float = 0.1
    patience: int = 5
    plateau_rel_span: float = 0.05
    cooldown: int | None = None
    min_lr: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.plateau_rel_span < 1.0:
            raise ConfigError(
                f"plateau_rel_span must lie in (0, 1), got {self.plateau_rel_span}"
            )

    @property
    def effective_cooldown(self) -> int:
        return self.patience if self.cooldown is None else self.cooldown


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


def neve_decide(history, cfg: ControllerConfig, lr: float,
                last_rescale_epoch: int | None = None) -> ControllerDecision:
    """Decide after the epoch whose model velocity is ``history[-1]``.

    ``history`` holds one model-velocity entry per elapsed epoch (epoch 1
    first); ``last_rescale_epoch`` is the run's only other bookkeeping.
    Pure: replaying a recorded history reproduces the decision sequence.
    """
    if len(history) == 0:
        raise ConfigError("decision requires at least one model-velocity entry")
    epoch = len(history)
    v = history[-1]
    if v < cfg.epsilon:
        return ControllerDecision(
            STOP, epoch, f"model velocity {v:.6g} < epsilon {cfg.epsilon:.6g}")

    window = history[-(cfg.patience + 1):]
    if len(window) == cfg.patience + 1:
        cooled = (last_rescale_epoch is None
                  or epoch - last_rescale_epoch >= cfg.effective_cooldown)
        span = max(window) - min(window)
        mean = sum(window) / len(window)
        if cooled and span <= cfg.plateau_rel_span * mean:
            if cfg.min_lr is not None and lr <= cfg.min_lr:
                return ControllerDecision(
                    CONTINUE, epoch, f"plateau but lr already at floor {cfg.min_lr:g}")
            new_lr = cfg.alpha * lr
            if cfg.min_lr is not None:
                new_lr = max(new_lr, cfg.min_lr)
            return ControllerDecision(
                RESCALE, epoch,
                f"velocity plateau: span {span:.6g} <= "
                f"{cfg.plateau_rel_span:g} * mean {mean:.6g}",
                new_lr=new_lr)
    return ControllerDecision(CONTINUE, epoch)


@dataclass(frozen=True)
class EpsilonAnalysis:
    """Worst-case softmax output variation when the head velocity is epsilon."""

    epsilon: float
    p_star: float      # argmax probability: (1 - eps)^(1/eps)
    max_delta: float   # p_star * ((1 - eps)^(-1) - 1)


def softmax_delta(p: float, epsilon: float) -> float:
    """Output variation ``p * (p^(-eps) - 1)`` of a softmax entry at
    probability ``p`` whose velocity equals ``epsilon``."""
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"p must lie in (0, 1], got {p}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    # p^(-eps) - 1 == expm1(-eps * ln p), accurate for small eps
    return p * math.expm1(-epsilon * math.log(p))


def epsilon_analysis(epsilon: float) -> EpsilonAnalysis:
    """Closed-form maximizer of softmax_delta over p in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    # (1 - eps)^(1/eps) via exp(log1p(-eps)/eps) keeps small-eps accuracy
    p_star = math.exp(math.log1p(-epsilon) / epsilon)
    max_delta = p_star * (epsilon / (1.0 - epsilon))
    return EpsilonAnalysis(epsilon, p_star, max_delta)


@dataclass(frozen=True)
class BaselineSchedulerConfig:
    """Reference schedulers: fixed, step_decay (milestones + factor) and
    vloss (rescale after ``patience`` epochs without a new best validation
    loss, stop after ``stop_patience`` consecutive non-improving epochs)."""

    kind: str
    milestones: tuple[int, ...] = ()
    factor: float = 0.1
    patience: int = 5
    stop_patience: int = 10

    def __post_init__(self):
        if self.kind not in ("fixed", "step_decay", "vloss"):
            raise ConfigError(f"unknown baseline scheduler kind {self.kind!r}")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(f"milestones must be strictly increasing: {self.milestones}")
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(f"factor must lie in (0, 1), got {self.factor}")
        for name in ("patience", "stop_patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


def baseline_decide(cfg: BaselineSchedulerConfig, signals, lr: float,
                    epoch: int) -> ControllerDecision:
    """Decision of a reference scheduler at ``epoch``.

    ``signals`` is the per-epoch validation-loss series (epoch 1 first),
    required for the vloss kind and ignored otherwise. The vloss rule is
    re-simulated from the start of the series each call, so the function
    stays pure.
    """
    if cfg.kind == "fixed":
        return ControllerDecision(CONTINUE, epoch)
    if cfg.kind == "step_decay":
        if epoch in cfg.milestones:
            return ControllerDecision(
                RESCALE, epoch, f"step-decay milestone at epoch {epoch}",
                new_lr=cfg.factor * lr)
        return ControllerDecision(CONTINUE, epoch)

    if signals is None or len(signals) < epoch:
        raise ConfigError(
            "vloss scheduler needs a validation-loss series covering every epoch")
    best = math.inf
    rescale_wait = 0   # reset on improvement and on rescale
    stop_wait = 0      # reset on improvement only
    verdict, reason = CONTINUE, ""
    for t in range(1, epoch + 1):
        val = signals[t - 1]
        if val < best:
            best = val
            rescale_wait = 0
            stop_wait = 0
        else:
            rescale_wait += 1
            stop_wait += 1
        verdict, reason = CONTINUE, ""
        if stop_wait >= cfg.stop_patience:
            verdict = STOP
            reason = f"validation loss flat for {stop_wait} epochs"
        elif rescale_wait >= cfg.patience:
            verdict = RESCALE
            reason = f"validation loss flat for {rescale_wait} epochs"
            rescale_wait = 0
    if verdict == RESCALE:
        return ControllerDecision(RESCALE, epoch, reason, new_lr=cfg.factor * lr)
    return ControllerDecision(verdict, epoch, reason)
