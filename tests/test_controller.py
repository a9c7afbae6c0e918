"""Controller tests: the scheduler step, the epsilon analysis and baselines.

The closed-form epsilon results are verified against an independent
brute-force grid maximization of the softmax variation.
"""

import math

import numpy as np
import pytest

from neve.controller import (SchedulerSpec, SchedulerState, baseline_decide,
                             epsilon_analysis, neve_decide, softmax_delta)
from neve.errors import ConfigError

DEFAULTS = SchedulerSpec()


def grid_max_delta(eps, n=100_000):
    """Brute-force oracle: maximize p * (p**(-eps) - 1) over a p grid."""
    p = np.linspace(1.0 / (n + 1), 1.0 - 1.0 / (n + 1), n)
    vals = p * (p ** (-eps) - 1.0)
    i = int(np.argmax(vals))
    return p[i], vals[i]


def decide(history, cfg=DEFAULTS, lr=0.1, last_rescale=None):
    """The step's decision at the last epoch of ``history``, from the state
    its earlier epochs leave (with ``last_rescale`` set by hand)."""
    state = SchedulerState(epoch=len(history) - 1,
                           window=tuple(history[-cfg.patience - 1:-1]),
                           last_rescale=last_rescale)
    return neve_decide(cfg, state, history[-1], lr)[1]


class TestNeveDecide:
    def test_stop_below_epsilon(self):
        state, d = neve_decide(DEFAULTS, SchedulerState(epoch=2, window=(0.5, 0.2)), 9e-4, 0.1)
        assert d.verdict == "stop"
        assert state.epoch == 3

    def test_plateau_triggers_rescale(self):
        window = [0.200, 0.201, 0.199, 0.2005, 0.2002, 0.1998]
        span = max(window) - min(window)
        assert span <= 0.05 * (sum(window) / len(window))  # the rule's arithmetic
        d = decide(window)
        assert d.verdict == "rescale"
        assert d.new_lr == pytest.approx(0.01, abs=1e-15)

    def test_halving_series_continues(self):
        d = decide([0.8, 0.4, 0.2])
        assert d.verdict == "continue"

    def test_stop_takes_precedence_over_plateau(self):
        flat_tiny = [9e-4] * 6
        d = decide(flat_tiny)
        assert d.verdict == "stop"

    def test_varying_window_continues(self):
        d = decide([0.2, 0.3, 0.2, 0.3, 0.2, 0.3])
        assert d.verdict == "continue"

    def test_cooldown_suppresses_rescale(self):
        flat = [0.2] * 12
        # rescaled at epoch 8: within the default 5-epoch cooldown until 13
        d = decide(flat, last_rescale=8)
        assert d.verdict == "continue"
        d = decide(flat + [0.2], last_rescale=8)
        assert d.verdict == "rescale"

    def test_min_lr_floor(self):
        cfg = SchedulerSpec(min_lr=0.005)
        flat = [0.2] * 6
        d = decide(flat, cfg, lr=0.1)
        assert d.verdict == "rescale" and d.new_lr == pytest.approx(0.01)
        d = decide(flat, cfg, lr=0.01)
        assert d.verdict == "rescale" and d.new_lr == 0.005
        d = decide(flat, cfg, lr=0.005)
        assert d.verdict == "continue"

    def test_rescale_strictly_decreases_lr(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            level = 10.0 ** rng.uniform(-2, 0)
            hist = list(level * (1.0 + 0.01 * rng.standard_normal(10)))
            lr = 10.0 ** rng.uniform(-4, 0)
            d = decide(hist, lr=lr)
            if d.verdict == "rescale":
                assert d.new_lr < lr

    def test_alpha_power_law(self):
        # fold a plateau-heavy series: after k rescales lr == alpha^k * lr0
        cfg = SchedulerSpec(epsilon=1e-9)
        lr0, lr = 0.5, 0.5
        state = SchedulerState()
        rescales = 0
        for _ in range(1, 40):
            state, d = neve_decide(cfg, state, 0.3, lr)
            if d.verdict == "rescale":
                lr = d.new_lr
                rescales += 1
        assert rescales >= 2
        assert lr == pytest.approx(cfg.alpha ** rescales * lr0, rel=1e-12)

    def test_missing_signal_rejected(self):
        for sched in (DEFAULTS, SchedulerSpec(kind="vloss")):
            with pytest.raises(ConfigError, match=sched.kind):
                neve_decide(sched, SchedulerState(), None, 0.1)

    def test_step_is_pure(self):
        state = SchedulerState(epoch=5, window=(0.2,) * 5)
        after, d = neve_decide(DEFAULTS, state, 0.2, 0.1)
        assert state == SchedulerState(epoch=5, window=(0.2,) * 5)
        assert d.verdict == "rescale"
        assert (after.epoch, after.last_rescale, len(after.window)) == (6, 6, 6)

    def test_config_validation(self):
        for field, value in (("alpha", 1.5), ("patience", 0), ("epsilon", 0.0),
                             ("cooldown", -1)):
            with pytest.raises(ConfigError, match=rf"^scheduler\.{field} "):
                SchedulerSpec(**{field: value})


class TestEpsilonAnalysis:
    def test_reference_value_at_1e3(self):
        a = epsilon_analysis(1e-3)
        assert 3.6e-4 <= a.max_delta <= 3.8e-4

    def test_small_eps_limit_is_inverse_e(self):
        a = epsilon_analysis(1e-8)
        assert a.p_star == pytest.approx(math.exp(-1), rel=1e-6)

    def test_eps_half_exact(self):
        a = epsilon_analysis(0.5)
        assert a.p_star == pytest.approx(0.25, abs=1e-12)
        assert a.max_delta == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 0.1, 0.5])
    def test_matches_grid_oracle(self, eps):
        a = epsilon_analysis(eps)
        p_grid, val_grid = grid_max_delta(eps)
        assert abs(a.p_star - p_grid) <= 1e-4
        assert abs(a.max_delta - val_grid) <= 1e-7
        assert a.max_delta >= val_grid  # closed form is the true maximum

    def test_consistency_with_softmax_delta(self):
        for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            a = epsilon_analysis(eps)
            assert softmax_delta(a.p_star, eps) == pytest.approx(a.max_delta, abs=1e-12)

    def test_monotone_in_eps(self):
        eps_grid = np.linspace(1e-4, 0.9, 200)
        deltas = [epsilon_analysis(e).max_delta for e in eps_grid]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                epsilon_analysis(bad)


class TestSoftmaxDelta:
    def test_p_one_boundary(self):
        assert softmax_delta(1.0, 1e-3) == 0.0

    def test_vanishes_as_eps_to_zero(self):
        for p in (0.1, 0.5, 0.9):
            assert softmax_delta(p, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_positive_inside_domain(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform(1e-4, 0.9999)
            eps = rng.uniform(1e-4, 0.999)
            assert softmax_delta(p, eps) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            softmax_delta(0.0, 0.5)
        with pytest.raises(ConfigError):
            softmax_delta(0.5, 0.0)


class TestBaselines:
    def test_fixed_always_continues(self):
        cfg = SchedulerSpec(kind="fixed")
        for epoch in (1, 50, 10_000):
            assert baseline_decide(cfg, None, 0.1, epoch).verdict == "continue"
        with pytest.raises(ConfigError, match="epoch"):
            baseline_decide(cfg, None, 0.1, 0)

    def test_step_decay_milestones(self):
        cfg = SchedulerSpec(kind="step_decay", milestones=(100, 150))
        lr = 0.1
        for epoch in range(1, 200):
            d = baseline_decide(cfg, None, lr, epoch)
            if d.verdict == "rescale":
                lr = d.new_lr
        # eta = 0.01 from epoch 100 and 0.001 from epoch 150
        assert lr == pytest.approx(0.001, rel=1e-12)
        assert baseline_decide(cfg, None, 0.1, 100).new_lr == pytest.approx(0.01)

    def test_vloss_improving_series_continues(self):
        cfg = SchedulerSpec(kind="vloss", vloss_patience=5, stop_patience=10)
        series = [1.0 / t for t in range(1, 31)]
        for epoch in range(1, 31):
            assert baseline_decide(cfg, series, 0.1, epoch).verdict == "continue"

    def test_vloss_flat_rescales_at_sixth_epoch(self):
        cfg = SchedulerSpec(kind="vloss", vloss_patience=5, stop_patience=50)
        series = [0.7] * 6
        for epoch in range(1, 6):
            assert baseline_decide(cfg, series, 0.1, epoch).verdict == "continue"
        d = baseline_decide(cfg, series, 0.1, 6)
        assert d.verdict == "rescale"
        assert d.new_lr == pytest.approx(0.01)

    @pytest.mark.parametrize("sched,signal", [
        (SchedulerSpec(kind="vloss", vloss_patience=1), 0.7),
        (SchedulerSpec(kind="step_decay", milestones=(2,)), None)])
    def test_baseline_rescale_leaves_last_rescale_unset(self, sched, signal):
        # last_rescale feeds neve's cooldown only, so the other kinds never write it
        state, verdicts = SchedulerState(), []
        for _ in range(2):
            state, d = neve_decide(sched, state, signal, 0.1)
            verdicts.append(d.verdict)
        assert verdicts == ["continue", "rescale"]
        assert state.last_rescale is None

    def test_vloss_stops_after_stop_patience(self):
        cfg = SchedulerSpec(kind="vloss", vloss_patience=5, stop_patience=10)
        series = [0.5] + [0.7] * 10
        verdicts = [baseline_decide(cfg, series, 0.1, e).verdict
                    for e in range(1, 12)]
        assert verdicts[5] == "rescale"   # epoch 6
        assert verdicts.count("rescale") == 1   # the rescale wait restarts after epoch 6
        assert verdicts[10] == "stop"     # epoch 11: 10 non-improving epochs
        assert "stop" not in verdicts[:10]

    def test_vloss_requires_series(self):
        cfg = SchedulerSpec(kind="vloss")
        with pytest.raises(ConfigError):
            baseline_decide(cfg, None, 0.1, 1)
        with pytest.raises(ConfigError):
            baseline_decide(cfg, [0.5], 0.1, 2)

    def test_invalid_configs(self):
        for fields, named in (({"kind": "cosine"}, "kind"),
                              ({"kind": "step_decay", "milestones": (10, 10)}, "milestones"),
                              ({"kind": "vloss", "vloss_patience": 0}, "vloss_patience")):
            with pytest.raises(ConfigError, match=rf"^scheduler\.{named}[: ]"):
                SchedulerSpec(**fields)
