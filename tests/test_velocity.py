"""Change-rate and velocity tests, including the randomized bound checks."""

import numpy as np
import numpy.testing as npt
import pytest

from neve.engine import Optimizer, OptimizerSpec, backward_and_step, build_model
from neve.errors import ConfigError
from neve.velocity import (ZERO_NORM_EPS, ActivationSnapshot, VelocityState, change_rate,
                           normalize_capture, velocity_step)


def capture_of(*blocks):
    return tuple(np.asarray(b, dtype=np.float64) for b in blocks)


def snapshot_of(epoch, *blocks):
    return normalize_capture(capture_of(*blocks), epoch)


class TestNormalize:
    def test_three_four_five(self):
        snap = snapshot_of(0, [[3.0, 4.0]])
        npt.assert_allclose(snap.units[0], [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert not snap.zero_flags[0][0]

    def test_zero_vector_flagged_not_nan(self):
        snap = snapshot_of(0, [[0.0, 0.0, 0.0]])
        assert snap.zero_flags[0][0]
        npt.assert_array_equal(snap.units[0], np.zeros((1, 3)))
        assert np.isfinite(snap.units[0]).all()

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0 / np.sqrt(2), -1.0 / np.sqrt(2)]])
        snap = snapshot_of(0, v)
        npt.assert_allclose(snap.units[0], v, rtol=0, atol=1e-12)

    def test_norms_are_unit(self):
        rng = np.random.default_rng(0)
        snap = snapshot_of(0, rng.standard_normal((40, 17)))
        norms = np.linalg.norm(snap.units[0], axis=1)
        npt.assert_allclose(norms, 1.0, rtol=0, atol=1e-9)


def reference_snapshot(raw, epoch):
    """``normalize_capture`` in its earlier form: a safe divisor for the dead
    rows, then a zero fill of them over the whole block."""
    units, flags = [], []
    for block in raw:
        norms = np.linalg.norm(block, axis=1)
        dead = norms < ZERO_NORM_EPS
        safe = np.where(dead, 1.0, norms)
        units.append(np.where(dead[:, None], 0.0, block / safe[:, None]))
        flags.append(dead)
    return ActivationSnapshot(epoch, tuple(units), tuple(flags))


class TestDeadRows:
    def test_rates_and_velocities_match_the_reference_bit_for_bit(self):
        # per site, rows 0-1 stay live, row 2 dies at epoch 1, row 3 revives
        # at epoch 2, rows 4-5 stay dead (one all zeros, one of tiny negatives)
        rng = np.random.default_rng(11)
        dead = {0: [3, 4, 5], 1: [2, 3, 4, 5], 2: [2, 4, 5]}
        captures = []
        for epoch in range(3):
            blocks = []
            for length in (7, 30):
                block = rng.standard_normal((6, length))
                block[dead[epoch]] *= 1e-15
                block[4] = 0.0
                block[5] = -np.abs(block[5])
                blocks.append(block)
            captures.append(tuple(blocks))
        states = []
        for normalize in (normalize_capture, reference_snapshot):
            snaps = [normalize(raw, epoch) for epoch, raw in enumerate(captures)]
            state = VelocityState.initial(12)
            for prev, curr in zip(snaps, snaps[1:]):
                state = velocity_step(state, change_rate(prev, curr))
            states.append((snaps, state))
        (snaps, state), (ref_snaps, ref_state) = states
        assert state.rho.tobytes() == ref_state.rho.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()
        assert state.history == ref_state.history
        for snap, ref in zip(snaps, ref_snaps):
            for units, ref_units, flags in zip(snap.units, ref.units, snap.zero_flags):
                assert units[~flags].tobytes() == ref_units[~flags].tobytes()
                assert (units[flags] == 0.0).all()


class TestChangeRate:
    def test_identical_vectors_give_one(self):
        a = snapshot_of(0, [[1.0, 2.0, 2.0]])
        b = snapshot_of(1, [[1.0, 2.0, 2.0]])
        npt.assert_allclose(change_rate(a, b), [1.0], rtol=0, atol=1e-15)

    def test_cos_45_degrees(self):
        a = snapshot_of(0, [[1.0, 0.0]])
        b = snapshot_of(1, [[1.0, 1.0]])
        npt.assert_allclose(change_rate(a, b), [np.sqrt(2) / 2], rtol=0, atol=1e-15)

    def test_orthogonal_gives_zero(self):
        a = snapshot_of(0, [[1.0, 0.0]])
        b = snapshot_of(1, [[0.0, 5.0]])
        npt.assert_allclose(change_rate(a, b), [0.0], rtol=0, atol=1e-15)

    def test_dead_both_epochs_gives_one(self):
        a = snapshot_of(0, [[0.0, 0.0]])
        b = snapshot_of(1, [[0.0, 0.0]])
        npt.assert_array_equal(change_rate(a, b), [1.0])

    def test_dead_one_epoch_gives_zero(self):
        a = snapshot_of(0, [[0.0, 0.0]])
        b = snapshot_of(1, [[3.0, 4.0]])
        npt.assert_array_equal(change_rate(a, b), [0.0])

    def test_registry_mismatch_rejected(self):
        a = snapshot_of(0, [[1.0, 0.0]])
        b = snapshot_of(1, [[1.0, 0.0, 0.0]])
        with pytest.raises(ConfigError, match="registr"):
            change_rate(a, b)

    def test_non_consecutive_epochs_rejected(self):
        a = snapshot_of(0, [[1.0, 0.0]])
        b = snapshot_of(2, [[1.0, 0.0]])
        with pytest.raises(ConfigError, match="consecutive"):
            change_rate(a, b)

    def test_bounds_over_randomized_pairs(self):
        # 10^4 neuron pairs, zero vectors sprinkled in: rho in [-1, 1], no NaN
        rng = np.random.default_rng(123)
        n, length = 10_000, 24
        raw_a = rng.standard_normal((n, length)) * rng.uniform(0, 100, (n, 1))
        raw_b = rng.standard_normal((n, length)) * rng.uniform(0, 100, (n, 1))
        dead_a = rng.random(n) < 0.05
        dead_b = rng.random(n) < 0.05
        raw_a[dead_a] = 0.0
        raw_b[dead_b] = 0.0
        snap_a, snap_b = snapshot_of(0, raw_a), snapshot_of(1, raw_b)
        rho = change_rate(snap_a, snap_b)
        assert np.isfinite(rho).all()
        assert (rho >= -1.0).all() and (rho <= 1.0).all()
        assert (rho[dead_a & dead_b] == 1.0).all()
        assert (rho[dead_a ^ dead_b] == 0.0).all()
        # raw inner products may spill past [-1, 1] only by rounding noise
        raw_dots = np.einsum("nl,nl->n", snap_a.units[0], snap_b.units[0])
        assert (np.abs(raw_dots) - 1.0).max() <= 1e-9


class TestVelocityStep:
    def test_first_step_arithmetic(self):
        state = VelocityState.initial(1)
        state = velocity_step(state, np.array([0.9]))
        assert state.v[0] == abs((1.0 - 0.9) - 0.5 * 0.0)
        npt.assert_allclose(state.v[0], 0.1, rtol=0, atol=1e-15)

    def test_second_step_cancels(self):
        state = VelocityState.initial(1)
        state = velocity_step(state, np.array([0.9]))
        state = velocity_step(state, np.array([0.95]))
        expected = abs((1.0 - 0.95) - 0.5 * abs(1.0 - 0.9))
        assert state.v[0] == expected
        npt.assert_allclose(state.v[0], 0.0, rtol=0, atol=1e-15)

    def test_rho_one_decays_geometrically(self):
        # with rho = 1 the recurrence is v <- mu * v, an exact halving here
        state = VelocityState(v=np.array([0.8, 0.2]), rho=None, history=())
        expected = state.v.copy()
        for _ in range(10):
            state = velocity_step(state, np.ones(2))
            expected *= 0.5
            npt.assert_array_equal(state.v, expected)

    def test_purity(self):
        state = VelocityState.initial(3)
        rho = np.array([0.9, 0.8, 1.0])
        out1 = velocity_step(state, rho)
        out2 = velocity_step(state, rho)
        npt.assert_array_equal(out1.v, out2.v)
        assert out1.history == out2.history
        npt.assert_array_equal(state.v, np.zeros(3))
        assert state.history == ()

    def test_history_accumulates_model_velocity(self):
        state = VelocityState.initial(2)
        state = velocity_step(state, np.array([0.8, 0.6]))
        npt.assert_allclose(state.history, [(0.2 + 0.4) / 2], atol=1e-15)
        state = velocity_step(state, np.array([1.0, 1.0]))
        assert len(state.history) == 2

    def test_shape_mismatch_rejected(self):
        state = VelocityState.initial(2)
        with pytest.raises(ConfigError):
            velocity_step(state, np.ones(3))


class TestModelVelocity:
    # the model velocity of an epoch is the mean of the new per-neuron velocities
    def test_mean_of_two(self):
        state = velocity_step(VelocityState.initial(2), np.array([0.8, 0.6]))
        assert state.history[-1] == pytest.approx(0.3, abs=1e-15)

    def test_all_zero(self):
        assert velocity_step(VelocityState.initial(5), np.ones(5)).history[-1] == 0.0

    def test_mean_of_three(self):
        state = velocity_step(VelocityState.initial(3), np.array([0.9, 0.9, 0.6]))
        assert state.history[-1] == pytest.approx(0.2, abs=1e-15)

    def test_empty_registry_rejected(self):
        with pytest.raises(ConfigError):
            VelocityState.initial(0)


class TestInvariantProperties:
    def test_scale_invariance(self):
        # scaling any raw neuron vector by c > 0 leaves rho and v unchanged
        rng = np.random.default_rng(5)
        raw0 = rng.standard_normal((10, 16))
        raw1 = rng.standard_normal((10, 16))
        scales = rng.uniform(1e-6, 1e6, (10, 1))
        rho_plain = change_rate(snapshot_of(0, raw0), snapshot_of(1, raw1))
        rho_scaled = change_rate(snapshot_of(0, raw0 * scales),
                                 snapshot_of(1, raw1 * scales))
        npt.assert_allclose(rho_scaled, rho_plain, rtol=0, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        raw0 = rng.standard_normal((12, 9))
        raw1 = rng.standard_normal((12, 9))
        perm = rng.permutation(12)
        rho = change_rate(snapshot_of(0, raw0), snapshot_of(1, raw1))
        rho_p = change_rate(snapshot_of(0, raw0[perm]), snapshot_of(1, raw1[perm]))
        npt.assert_allclose(rho_p, rho[perm], rtol=0, atol=1e-15)
        s = velocity_step(VelocityState.initial(12), rho)
        s_p = velocity_step(VelocityState.initial(12), rho_p)
        npt.assert_allclose(s_p.v, s.v[perm], rtol=0, atol=1e-15)
        assert s.history[-1] == pytest.approx(s_p.history[-1], abs=1e-15)

    def test_frozen_parameters_contract_geometrically(self):
        # train 2 epochs, then freeze: rho == 1 and v halves every epoch
        model = build_model("mlp:3-8-3", seed=2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 3))
        y = rng.integers(0, 3, size=30)
        aux = rng.standard_normal((20, 3))
        opt = Optimizer(OptimizerSpec(lr=0.1, momentum=0.0, weight_decay=0.0))
        state = VelocityState.initial(model.n_probed_neurons)
        prev = normalize_capture(model.forward(aux, capture_probes=True)[2], 0)
        for epoch in range(1, 3):
            backward_and_step(model, x, y, opt)
            snap = normalize_capture(model.forward(aux, capture_probes=True)[2], epoch)
            state = velocity_step(state, change_rate(prev, snap))
            prev = snap
        frozen_v = state.v.copy()
        for epoch in range(3, 9):
            snap = normalize_capture(model.forward(aux, capture_probes=True)[2], epoch)
            rho = change_rate(prev, snap)
            npt.assert_allclose(rho, 1.0, rtol=0, atol=1e-12)
            state = velocity_step(state, rho)
            prev = snap
            frozen_v = 0.5 * frozen_v
            npt.assert_allclose(state.v, frozen_v, rtol=1e-9, atol=1e-15)
