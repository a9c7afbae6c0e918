"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Desk-scale tasks (synthetic blobs and procedural digit images)
stand in for the full-scale image benchmarks; every tolerance is pinned
here, not tuned at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from neve.controller import (SchedulerSpec, SchedulerState, epsilon_analysis,
                             neve_decide)
from neve.data import gen_blobs, make_aux_noise
from neve.engine import Optimizer, OptimizerSpec, backward_and_step, build_model
from neve.experiment import (config_from_dict, records_to_csv,
                             replay_neve_decisions, run_training)
from neve.velocity import (VelocityState, change_rate, normalize_capture,
                           velocity_step)
from tests.test_engine import assert_grads_match

SEEDS = (1, 2, 3, 4, 5)

# the two desk-scale tasks: easy well-separated blobs for the convergence
# and optimizer checks, overlapping blobs for the epsilon sweep, and
# noisy procedural digits for the scheduler comparison
BLOBS_EASY = dict(
    dataset={"name": "blobs", "n_samples": 2000, "n_classes": 4, "sigma": 0.5,
             "test_samples": 1000},
    arch="mlp:2-64-64-4",
    optimizer={"kind": "sgd", "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
    scheduler={"kind": "neve"},
    max_epochs=200, batch_size=256, seeds=list(SEEDS))

BLOBS_HARD = dict(BLOBS_EASY,
                  dataset={"name": "blobs", "n_samples": 2000, "n_classes": 6,
                           "sigma": 0.6, "test_samples": 1000},
                  arch="mlp:2-64-64-6", max_epochs=120)

DIGITS = dict(
    dataset={"name": "digits", "n_samples": 4000, "test_samples": 2000,
             "noise": 0.3, "shift": 3},
    arch="mlp:784-128-64-10",
    optimizer={"kind": "sgd", "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
    scheduler={"kind": "neve"},
    max_epochs=40, batch_size=128, seeds=list(SEEDS))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {desc}")


def suite_mean_acc(base, seeds=SEEDS, **kw):
    d = dict(base)
    d.update(kw)
    cfg = config_from_dict(d)
    accs, stops = [], []
    for seed in seeds:
        res = run_training(cfg, seed)
        assert not res.failed, res.error
        accs.append(res.final.test_acc)
        stops.append(res.stop_epoch if res.stop_epoch is not None
                     else res.final.epoch)
    return float(np.mean(accs)), stops


def test_c01_epsilon_analysis_exactness():
    with criterion(1, "epsilon analysis matches the closed form and a grid oracle"):
        t0 = time.perf_counter()
        a = epsilon_analysis(1e-3)
        assert 3.6e-4 <= a.max_delta <= 3.8e-4
        for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            a = epsilon_analysis(eps)
            n = 100_000
            p = np.linspace(1.0 / (n + 1), 1.0 - 1.0 / (n + 1), n)
            vals = p * (p ** (-eps) - 1.0)
            i = int(np.argmax(vals))
            assert abs(a.p_star - p[i]) <= 1e-4
            assert abs(a.max_delta - vals[i]) <= 1e-7
        assert time.perf_counter() - t0 < 1.0


def test_c02_velocity_recurrence_arithmetic():
    with criterion(2, "velocity recurrence reproduces the unit sequences exactly"):
        s = VelocityState.initial(1)
        s = velocity_step(s, np.array([0.9]))
        assert s.v[0] == abs((1.0 - 0.9) - 0.5 * 0.0)
        s = velocity_step(s, np.array([0.95]))
        assert s.v[0] == abs((1.0 - 0.95) - 0.5 * abs(1.0 - 0.9))
        # rho == 1: the model velocity halves every epoch for ten steps
        s = VelocityState(v=np.array([0.3, 0.7, 0.1]), rho=None, history=())
        expected = float(s.v.mean())
        for _ in range(10):
            s = velocity_step(s, np.ones(3))
            expected *= 0.5
            assert abs(s.history[-1] - expected) <= 1e-12 * expected


def test_c03_change_rate_bounds_and_degeneracy():
    with criterion(3, "change rate bounded in [-1, 1] over 10^4 randomized pairs"):
        rng = np.random.default_rng(2024)
        n = 10_000
        a = rng.standard_normal((n, 32)) * rng.uniform(0, 1e3, (n, 1))
        b = rng.standard_normal((n, 32)) * rng.uniform(0, 1e3, (n, 1))
        dead_a = rng.random(n) < 0.03
        dead_b = rng.random(n) < 0.03
        a[dead_a] = 0.0
        b[dead_b] = 0.0
        snap_a = normalize_capture((a,), 0)
        snap_b = normalize_capture((b,), 1)
        rho = change_rate(snap_a, snap_b)
        assert np.isfinite(rho).all()
        assert rho.min() >= -1.0 and rho.max() <= 1.0
        assert (rho[dead_a & dead_b] == 1.0).all()


def relu_kink_margin(model, batch):
    """Smallest |pre-activation| feeding any ReLU: finite differences are
    only trustworthy when no unit sits within the probe step of the kink."""
    from neve.engine import ReLU
    x = np.asarray(batch, dtype=np.float64)
    margin = np.inf
    for layer in model.layers:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(x).min()))
        x = layer.forward(x)
    return margin


def test_c04_gradient_correctness():
    with criterion(4, "analytic gradients match finite differences on 20 models"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            if checked % 2 == 0:
                sizes = rng.integers(2, 7, size=3)
                arch = f"mlp:{sizes[0]}-{sizes[1]}-{sizes[2]}-3"
                shape = (int(sizes[0]),)
            else:
                ch = int(rng.integers(1, 3))
                arch = [{"kind": "conv", "out_channels": ch + 1, "kernel": 3,
                         "stride": int(rng.integers(1, 3)), "pad": 1},
                        {"kind": "relu"}, {"kind": "flatten"},
                        {"kind": "dense", "out": 3}]
                shape = (ch, 6, 6)
            model = build_model(arch, seed=int(rng.integers(0, 1000)),
                                input_shape=shape)
            assert model.params.size <= 1000
            x = rng.standard_normal((8, *shape))
            y = rng.integers(0, 3, size=8)
            if relu_kink_margin(model, x) < 1e-3:
                continue  # nondifferentiable point; draw a fresh model/batch
            assert_grads_match(model, x, y, rel_tol=1e-4)
            checked += 1
        assert time.perf_counter() - t0 < 30.0


def test_c05_frozen_model_sanity():
    with criterion(5, "zero learning rate gives unit change rates and a stop"):
        t0 = time.perf_counter()
        ds = gen_blobs(400, 3, sigma=0.5, seed=0)
        aux = make_aux_noise(50, (2,), seed=1)
        ctrl = SchedulerSpec()

        def frozen_loop(warm_epochs):
            model = build_model("mlp:2-16-3", seed=3)
            opt = Optimizer(OptimizerSpec(kind="sgd", lr=0.1 if warm_epochs else 0.0,
                                          momentum=0.9, weight_decay=1e-4))
            state = VelocityState.initial(model.n_probed_neurons)
            sched_state = SchedulerState()
            prev = normalize_capture(
                model.forward(aux, capture_probes=True)[2], 0)
            rhos, stop_at = [], None
            for epoch in range(1, 60):
                if epoch == warm_epochs + 1:
                    opt.lr = 0.0
                backward_and_step(model, ds.samples, ds.labels, opt)
                snap = normalize_capture(
                    model.forward(aux, capture_probes=True)[2], epoch)
                rho = change_rate(prev, snap)
                state = velocity_step(state, rho)
                prev = snap
                rhos.append(rho)
                sched_state, decision = neve_decide(ctrl, sched_state, state.history[-1],
                                                    opt.lr)
                if decision.verdict == "stop":
                    stop_at = epoch
                    break
            return rhos, state.history, stop_at

        # pure eta = 0 from the start: rho is 1 from the very first epoch
        rhos, history, stop_at = frozen_loop(warm_epochs=0)
        assert stop_at == 1
        for rho in rhos:
            np.testing.assert_allclose(rho, 1.0, rtol=0, atol=1e-12)
        assert history[-1] < ctrl.epsilon

        # freeze after a short warmup: geometric decay down to the stop
        warm = 3
        rhos, history, stop_at = frozen_loop(warm_epochs=warm)
        assert stop_at is not None
        for rho in rhos[warm + 1:]:
            np.testing.assert_allclose(rho, 1.0, rtol=0, atol=1e-12)
        frozen = history[warm:stop_at]
        assert all(b < a for a, b in zip(frozen, frozen[1:]))
        for a, b in zip(frozen, frozen[1:]):
            assert abs(b - 0.5 * a) <= 1e-12 * max(a, 1e-30)
        assert history[stop_at - 1] < ctrl.epsilon
        assert time.perf_counter() - t0 < 60.0


def test_c06_end_to_end_convergence():
    with criterion(6, "velocity decays with training and stops near convergence"):
        cfg = config_from_dict(BLOBS_EASY)
        for seed in SEEDS:
            t0 = time.perf_counter()
            res = run_training(cfg, seed)
            elapsed = time.perf_counter() - t0
            assert not res.failed, res.error
            vs = res.velocity_series["noise"]
            rho = spearmanr(np.arange(1, len(vs) + 1), vs).statistic
            assert rho <= -0.8, f"seed {seed}: spearman {rho:.3f}"
            assert res.stop_epoch is not None and res.stop_epoch < 200
            assert res.final.train_acc >= 0.98
            assert elapsed < 120.0


def test_c07_desk_scale_scheduler_comparison():
    with criterion(7, "validation-free control matches tuned baselines on digits"):
        t0 = time.perf_counter()
        neve_acc, neve_stops = suite_mean_acc(DIGITS)
        assert all(s < 40 for s in neve_stops)  # stops inside the budget
        baselines = {
            "fixed": suite_mean_acc(DIGITS, scheduler={"kind": "fixed"})[0],
            "step(15,30)": suite_mean_acc(
                DIGITS, scheduler={"kind": "step_decay", "milestones": [15, 30]})[0],
            "step(20,30)": suite_mean_acc(
                DIGITS, scheduler={"kind": "step_decay", "milestones": [20, 30]})[0],
        }
        best = max(baselines.values())
        vloss_acc, _ = suite_mean_acc(
            DIGITS,
            dataset={**DIGITS["dataset"], "validation_fraction": 0.3},
            scheduler={"kind": "vloss"})
        print(f"\n  neve={neve_acc:.4f} baselines={ {k: round(v, 4) for k, v in baselines.items()} } "
              f"vloss(30%)={vloss_acc:.4f}")
        assert best - neve_acc <= 0.015
        assert vloss_acc - neve_acc <= 0.005
        assert time.perf_counter() - t0 < 1200.0


def test_c08_noise_aux_tracks_heldout_velocity():
    with criterion(8, "noise-probed velocity correlates with heldout-probed velocity"):
        cfg = config_from_dict(dict(
            DIGITS,
            dataset={**DIGITS["dataset"], "test_samples": 500,
                     "validation_fraction": 0.3},
            scheduler={"kind": "fixed"},
            aux={"sources": ["noise", "heldout"]},
            max_epochs=50))
        res = run_training(cfg, 1)
        noise = np.asarray(res.velocity_series["noise"])
        held = np.asarray(res.velocity_series["heldout"])
        assert len(noise) == len(held) == 50
        r = np.corrcoef(noise, held)[0, 1]
        print(f"\n  pearson(noise, heldout) = {r:.4f}")
        assert r >= 0.8


def test_c09_epsilon_sweep_direction():
    with criterion(9, "larger stop thresholds stop earlier and cost accuracy"):
        grid = (1e-4, 1e-3, 1e-2, 1e-1)
        mean_stops, mean_accs = [], []
        for eps in grid:
            acc, stops = suite_mean_acc(
                BLOBS_HARD, scheduler={"kind": "neve", "epsilon": eps})
            # runs that never cross eps count at the full budget
            mean_stops.append(float(np.mean(stops)))
            mean_accs.append(acc)
        print(f"\n  stops={mean_stops} accs={[round(a, 4) for a in mean_accs]}")
        assert all(b <= a for a, b in zip(mean_stops, mean_stops[1:]))
        assert mean_accs[3] < mean_accs[1]  # eps 1e-1 strictly below eps 1e-3


def test_c10_optimizer_robustness():
    with criterion(10, "both optimizers stop via velocity near their ceilings"):
        seeds = (1, 2, 3)
        for kind, lr in (("sgd", 0.1), ("adam", 1e-3)):
            opt = {"kind": kind, "lr": lr, "momentum": 0.9, "weight_decay": 1e-4}
            cfg = config_from_dict(dict(BLOBS_EASY, optimizer=opt, max_epochs=60,
                                        seeds=list(seeds)))
            accs, stops = [], []
            for seed in seeds:
                res = run_training(cfg, seed)
                accs.append(res.final.test_acc)
                stops.append(res.stop_epoch)
            assert all(s is not None for s in stops), f"{kind} did not stop"
            ceiling, _ = suite_mean_acc(dict(BLOBS_EASY, optimizer=opt,
                                             max_epochs=60),
                                        seeds=seeds, scheduler={"kind": "fixed"})
            gap = ceiling - float(np.mean(accs))
            print(f"\n  {kind}: stops={stops} acc={np.mean(accs):.4f} "
                  f"ceiling={ceiling:.4f} gap={gap * 100:.2f}pt")
            assert gap <= 0.01


def test_c11_reproducibility_and_replay():
    with criterion(11, "identical config and seed give identical records"):
        cfg = config_from_dict(dict(BLOBS_EASY, max_epochs=30))
        a = run_training(cfg, 3)
        b = run_training(cfg, 3)
        strip = lambda res: [",".join(line.split(",")[:-1])
                             for line in records_to_csv(res.records).splitlines()]
        assert strip(a) == strip(b)
        ctrl = SchedulerSpec()
        replayed = replay_neve_decisions(a.velocity_series["noise"], ctrl,
                                         cfg.optimizer.lr)
        assert [d.verdict for d in replayed] == [r.decision for r in a.records]


def test_c12_probe_overhead_bound():
    with criterion(12, "velocity probing costs at most 25% extra wall time"):
        base = dict(DIGITS, max_epochs=10,
                    dataset={**DIGITS["dataset"], "test_samples": 500},
                    scheduler={"kind": "fixed"})
        run_training(config_from_dict(dict(base, max_epochs=2)), 1)  # warmup
        # min over epochs and runs: machine load only ever adds time. In the
        # order with, without, without, with, one slowdown can raise both
        # probed runs only by also spanning both bare runs between them.
        best = {True: float("inf"), False: float("inf")}
        for probed in (True, False, False, True):
            sources = ["noise"] if probed else []
            records = run_training(config_from_dict(dict(base, aux={"sources": sources})),
                                   1).records
            best[probed] = min(best[probed], *(r.wall_seconds for r in records))
        t_with, t_without = best[True], best[False]
        ratio = t_with / t_without
        print(f"\n  per-epoch wall: probed={t_with * 1e3:.1f}ms "
              f"bare={t_without * 1e3:.1f}ms ratio={ratio:.3f}")
        assert ratio <= 1.25
