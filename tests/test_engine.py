"""Engine tests: forward/backward correctness, probes, optimizers.

The gradient checks use a central finite-difference oracle that is fully
independent of the backward pass: it only calls the forward pass and the
loss, perturbing one parameter entry at a time.
"""

import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from neve.data import gen_blobs
from neve.engine import (Conv2d, Dense, Optimizer, OptimizerSpec, backward_and_step,
                         build_model, compute_gradients, cross_entropy, evaluate, softmax)
from neve.engine import model as model_mod
from neve.engine.layers import _row_max, softmax_cross_entropy
from neve.errors import ConfigError, NeveError, NumericError

FD_STEP = 1e-5

# conv -> relu -> strided conv -> relu -> flatten -> dense on (1, 6, 6) inputs
TWO_CONV = [{"kind": "conv", "out_channels": 2, "kernel": 3, "stride": 1, "pad": 1},
            {"kind": "relu"},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "stride": 2},
            {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 3}]


def fd_gradients(model, batch, labels):
    """Central finite differences of the mean cross-entropy, parameter by
    parameter. Never touches layer.backward."""
    out = {}
    for idx, layer in enumerate(model.layers):
        for name, p in layer.params.items():
            g = np.zeros_like(p)
            flat_p = p.ravel()
            flat_g = g.ravel()
            for i in range(flat_p.size):
                keep = flat_p[i]
                flat_p[i] = keep + FD_STEP
                lp = cross_entropy(model.forward(batch)[0], labels)
                flat_p[i] = keep - FD_STEP
                lm = cross_entropy(model.forward(batch)[0], labels)
                flat_p[i] = keep
                flat_g[i] = (lp - lm) / (2 * FD_STEP)
            out[(idx, name)] = g
    return out


def assert_grads_match(model, batch, labels, rel_tol=1e-4, skip_below=1e-8):
    compute_gradients(model, batch, labels)
    numeric = fd_gradients(model, batch, labels)
    for idx, layer in enumerate(model.layers):
        for name, g in layer.grads.items():
            a = g.ravel()
            n = numeric[(idx, name)].ravel()
            for i in range(a.size):
                if abs(a[i]) < skip_below and abs(n[i]) < skip_below:
                    continue
                rel = abs(a[i] - n[i]) / max(abs(a[i]), abs(n[i]))
                assert rel <= rel_tol, (
                    f"layer {idx} param {name} entry {i}: analytic {a[i]}, "
                    f"numeric {n[i]}, rel err {rel}")


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        m1 = build_model("mlp:784-64-64-10", seed=7)
        m2 = build_model("mlp:784-64-64-10", seed=7)
        assert m1.params.tobytes() == m2.params.tobytes()

    def test_different_seed_differs(self):
        m1 = build_model("mlp:8-4-2", seed=1)
        m2 = build_model("mlp:8-4-2", seed=2)
        assert not np.array_equal(m1.layers[0].params["W"], m2.layers[0].params["W"])

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("arch,input_shape", [("mlp:12-8-5-3", None),
                                                  (TWO_CONV, (1, 6, 6))])
    def test_parameters_follow_the_initialization_rule(self, arch, input_shape, seed):
        # one generator, trainable layers in stack order: He-normal W, zero b
        m = build_model(arch, seed=seed, input_shape=input_shape)
        rng = np.random.default_rng(seed)
        trainable = [layer.params for layer in m.layers if layer.params]
        assert len(trainable) == 3
        for params in trainable:
            W = params["W"]
            # dense W is (in, out); conv W is (out, in, k, k)
            fan_in = W.shape[0] if W.ndim == 2 else int(np.prod(W.shape[1:]))
            assert np.array_equal(W, rng.normal(0.0, np.sqrt(2.0 / fan_in), W.shape))
            assert np.array_equal(params["b"], np.zeros(W.shape[1 if W.ndim == 2 else 0]))

    def test_mlp_probe_registry(self):
        # mlp[2,8,2]: one hidden relu + the softmax head
        m = build_model("mlp:2-8-2", seed=0)
        _, _, cap = m.forward(np.ones((5, 2)), capture_probes=True)
        assert len(cap) == 2
        assert [o.shape for o in cap] == [(8, 5), (2, 5)]
        assert m.n_probed_neurons == 10

    def test_conv_probe_granularity(self):
        # conv 1->4 k3, relu, flatten, dense->10 on 8x8: 4 channels + 10 classes
        arch = [{"kind": "conv", "out_channels": 4, "kernel": 3},
                {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 10}]
        m = build_model(arch, seed=0, input_shape=(1, 8, 8))
        _, _, cap = m.forward(np.ones((3, 1, 8, 8)), capture_probes=True)
        assert [o.shape[0] for o in cap] == [4, 10]
        assert m.n_probed_neurons == 14
        # per channel: the 3 samples' 6x6 positions form each channel's vector
        assert cap[0].shape == (4, 3 * 6 * 6)

    def test_shorthand_and_layer_dicts_build_the_same_model(self):
        dicts = [{"kind": "flatten"}, {"kind": "dense", "out": 8}, {"kind": "relu"},
                 {"kind": "dense", "out": 3}]
        a = build_model("mlp:16-8-3", seed=5, input_shape=(1, 4, 4))
        b = build_model(dicts, seed=5, input_shape=(1, 4, 4))
        assert [layer.name for layer in a.layers] == [layer.name for layer in b.layers]
        assert len(a.layers) == 4
        for la, lb in zip(a.layers, b.layers, strict=True):
            assert la.params.keys() == lb.params.keys()
        assert a.params.tobytes() == b.params.tobytes()

    def test_incompatible_layers_named(self):
        arch = [{"kind": "dense", "out": 4}, {"kind": "relu"},
                {"kind": "conv", "out_channels": 2, "kernel": 3}]
        with pytest.raises(ConfigError, match="conv"):
            build_model(arch, seed=0, input_shape=(8,))

    def test_must_end_in_dense_head(self):
        with pytest.raises(ConfigError, match="head"):
            build_model([{"kind": "dense", "out": 4}, {"kind": "relu"}],
                        seed=0, input_shape=(8,))


class TestForward:
    def test_identity_dense(self):
        m = build_model("mlp:3-3", seed=0)
        m.layers[0].params["W"][...] = np.eye(3)
        m.layers[0].params["b"][...] = 0.0
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -0.5]])
        logits, _, _ = m.forward(x)
        npt.assert_array_equal(logits, x)

    def test_dead_relu_probe_is_zero(self):
        m = build_model("mlp:2-4-2", seed=3)
        m.layers[0].params["W"][...] = -1.0
        m.layers[0].params["b"][...] = 0.0
        x = np.abs(np.random.default_rng(0).standard_normal((5, 2))) + 0.1
        _, _, cap = m.forward(x, capture_probes=True)
        npt.assert_array_equal(cap[0], np.zeros((4, 5)))

    def test_probe_capture_deterministic(self):
        m = build_model("mlp:6-5-4-3", seed=11)
        x = np.random.default_rng(1).standard_normal((7, 6))
        _, _, c1 = m.forward(x, capture_probes=True)
        _, _, c2 = m.forward(x, capture_probes=True)
        for a, b in zip(c1, c2):
            assert a.tobytes() == b.tobytes()

    def test_probe_shapes_stable_across_steps(self):
        m = build_model("mlp:4-6-3", seed=5)
        opt = Optimizer(OptimizerSpec(lr=0.05, momentum=0.0, weight_decay=0.0))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 4))
        y = rng.integers(0, 3, size=9)
        _, _, before = m.forward(x, capture_probes=True)
        backward_and_step(m, x, y, opt)
        _, _, after = m.forward(x, capture_probes=True)
        assert [o.shape for o in before] == [o.shape for o in after]

    def test_conv_capture_flattens_spatial(self):
        arch = [{"kind": "conv", "out_channels": 3, "kernel": 3, "pad": 1},
                {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 2}]
        m = build_model(arch, seed=0, input_shape=(1, 5, 5))
        x = np.random.default_rng(3).standard_normal((4, 1, 5, 5))
        _, _, cap = m.forward(x, capture_probes=True)
        assert cap[0].shape == (3, 4 * 5 * 5)
        assert cap[1].shape == (2, 4)

    def test_batch_shape_mismatch(self):
        m = build_model("mlp:4-3", seed=0)
        with pytest.raises(ConfigError, match="input shape"):
            m.forward(np.zeros((2, 5)))

    def test_nonfinite_activation_names_layer(self):
        m = build_model("mlp:2-3-2", seed=0)
        m.layers[0].params["W"][0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 0"):
            m.forward(np.ones((1, 2)))

    @pytest.mark.parametrize("arch,input_shape", [
        ("mlp:16-8-6-3", (1, 4, 4)), (TWO_CONV, (1, 6, 6))])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_weight_named_as_per_layer_scan(self, arch, input_shape, bad):
        rng = np.random.default_rng(5)
        clean = build_model(arch, seed=2, input_shape=input_shape)
        # 4 rows are one block; 3R + 1 rows are four
        for rows in (4, 3 * clean._block_rows + 1):
            x = rng.standard_normal((rows, *input_shape))
            for idx in (i for i, layer in enumerate(clean.layers) if layer.params):
                for capture in (False, True):
                    m = build_model(arch, seed=2, input_shape=input_shape)
                    m.layers[idx].params["W"].flat[0] = bad
                    with np.errstate(invalid="ignore"):
                        h, first_bad = x, None
                        for i, layer in enumerate(m.layers):
                            h = layer.forward(h)
                            if first_bad is None and not np.isfinite(h).all():
                                first_bad = i
                        assert first_bad is not None
                        with pytest.raises(NumericError, match=f"at layer {first_bad} "):
                            m.forward(x, capture_probes=capture)

    def test_nonfinite_row_of_a_later_block_named(self):
        # the logits of only the third block are not finite, and a
        # per-layer scan of the whole batch names the first conv
        m = build_model(TWO_CONV, seed=2, input_shape=(1, 6, 6))
        r = m._block_rows
        x = np.random.default_rng(6).standard_normal((3 * r + 1, 1, 6, 6))
        x[2 * r + 3, 0, 2, 2] = np.nan
        with pytest.raises(NumericError, match="at layer 0 "):
            m.forward(x)


class TestInferencePass:
    """``Model.forward`` keeps no backward state; the recording pass of
    ``compute_gradients`` computes the same numbers."""

    @pytest.mark.parametrize("arch,input_shape", [
        ("mlp:16-8-6-3", (1, 4, 4)), (TWO_CONV, (1, 6, 6))])
    def test_bit_identical_to_recording_pass(self, arch, input_shape):
        x = np.random.default_rng(8).standard_normal((6, *input_shape))
        m = build_model(arch, seed=4, input_shape=input_shape)
        logits, probs, cap = m.forward(x, capture_probes=True)
        rec_logits, rec_cap = m._logits(x, True, record=True)
        rec_probs = softmax(rec_logits)
        assert logits.tobytes() == rec_logits.tobytes()
        assert probs.tobytes() == rec_probs.tobytes()
        assert len(cap) == len(rec_cap) + 1 == 3
        for a, b in zip(cap, [*rec_cap, rec_probs.T], strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("arch,input_shape", [
        ("mlp:16-8-6-3", (1, 4, 4)), (TWO_CONV, (1, 6, 6))])
    @pytest.mark.parametrize("inference", ["forward", "evaluate"])
    def test_backward_after_inference_raises(self, arch, input_shape, inference):
        rng = np.random.default_rng(9)
        m = build_model(arch, seed=4, input_shape=input_shape)
        x = rng.standard_normal((6, *input_shape))
        y = rng.integers(0, 3, size=6)
        m._logits(x, False, record=True)    # every layer now holds backward state
        if inference == "forward":
            m.forward(x)
        else:
            evaluate(m, x, y)
        for layer in m.layers:
            with pytest.raises(NeveError, match=re.escape(f"{layer.name}: backward needs a")):
                layer.backward(np.ones(1))


class TestInferenceBuffers:
    """Both passes write every hidden dense output into the model's
    workspace and reuse it across calls; nothing a pass returns aliases
    it, and the caller's batch is never written."""

    @pytest.mark.parametrize("arch,input_shape", [
        ("mlp:16-8-6-3", (1, 4, 4)), ("mlp:5-7-7-3", (5,)), (TWO_CONV, (1, 6, 6))])
    def test_results_survive_a_later_forward(self, arch, input_shape):
        rng = np.random.default_rng(21)
        m = build_model(arch, seed=4, input_shape=input_shape)
        r = m._block_rows
        for first, second in ((6, 9), (9, 4), (3 * r + 5, r + 1)):
            out = m.forward(rng.standard_normal((first, *input_shape)), capture_probes=True)
            kept = [a.copy() for a in (out[0], out[1], *out[2])]
            m.forward(rng.standard_normal((second, *input_shape)), capture_probes=True)
            for got, want in zip((out[0], out[1], *out[2]), kept, strict=True):
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def reference_evaluate(m, x, y, batch_size):
        """``evaluate`` over plain numpy ops, with fresh arrays per batch."""
        dense = [layer.params for layer in m.layers if isinstance(layer, Dense)]
        losses, correct = [], 0
        for start in range(0, len(x), batch_size):
            h, yb = x[start:start + batch_size], y[start:start + batch_size]
            for p in dense[:-1]:
                h = np.maximum(h @ p["W"] + p["b"], 0.0)
            logits = h @ dense[-1]["W"] + dense[-1]["b"]
            losses.append(cross_entropy(logits, yb) * len(yb))
            correct += int((logits.argmax(axis=1) == yb).sum())
        return float(np.sum(losses) / len(x)), correct / len(x)

    @pytest.mark.parametrize("before", ["smaller", "larger"])
    def test_evaluate_matches_fresh_forwards(self, before):
        # 1100 rows in groups of EVAL_ROWS (512) leave a 76-row tail; a
        # smaller pass first makes the workspace grow, a larger one (a
        # 2000-row forward, one block) makes a group's rows a prefix
        rng = np.random.default_rng(22)
        m = build_model("mlp:3-32-16-4", seed=6)
        x = rng.standard_normal((1100, 3))
        y = rng.integers(0, 4, size=1100)
        assert model_mod.EVAL_ROWS == 512 and m._block_rows >= 2000
        m.forward(rng.standard_normal((100 if before == "smaller" else 2000, 3)))
        for _ in range(2):
            got = evaluate(m, x, y)
            assert got == self.reference_evaluate(m, x, y, model_mod.EVAL_ROWS)

    @pytest.mark.parametrize("lead,input_shape", [([], (6,)), ([{"kind": "flatten"}], (1, 2, 3))])
    def test_read_only_batch_through_a_leading_relu(self, lead, input_shape):
        # a flatten of the batch is a view of it, so the ReLU after it may not work in place
        arch = [*lead, {"kind": "relu"}, {"kind": "dense", "out": 4}, {"kind": "relu"},
                {"kind": "dense", "out": 3}]
        m = build_model(arch, seed=1, input_shape=input_shape)
        x = np.random.default_rng(23).standard_normal((7, *input_shape))
        keep = x.copy()
        x.setflags(write=False)
        y = np.arange(7) % 3
        m.forward(x, capture_probes=True)
        evaluate(m, x, y)
        compute_gradients(m, x, y)
        assert np.array_equal(x, keep)

    def test_second_evaluate_allocates_less_than_one_activation(self):
        # one 512x64 float64 activation is 256 KiB; the hidden outputs are
        # reused, so a second evaluate allocates only per-batch logits and loss terms
        blobs = gen_blobs(3000, 6, sigma=0.6, seed=3)
        m = build_model("mlp:2-64-64-6", seed=2)
        evaluate(m, blobs.samples, blobs.labels)
        tracemalloc.start()
        try:
            evaluate(m, blobs.samples, blobs.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 64 * 8

    def test_recorded_input_is_the_workspace(self):
        # flatten, dense, relu, dense, relu, dense: the second dense keeps as
        # its input the first dense's slot of the workspace, its first 6 * 8
        # values (no cols), which the ReLU rectified in place
        m = build_model("mlp:16-8-6-3", seed=4, input_shape=(1, 4, 4))
        x = np.random.default_rng(29).standard_normal((6, 1, 4, 4))
        compute_gradients(m, x, np.arange(6) % 3)
        assert isinstance(m.layers[3], Dense)
        assert np.shares_memory(m.layers[3]._saved, m._workspace[:6 * 8])
        assert not np.shares_memory(m.layers[3]._saved, m._workspace[6 * 8:])
        p = m.layers[1].params
        assert np.array_equal(m.layers[3]._saved, np.maximum(x.reshape(6, -1) @ p["W"] + p["b"], 0))

    @pytest.mark.parametrize("arch,input_shape", [("mlp:3-8-2", (3,)), (TWO_CONV, (1, 6, 6))])
    def test_release_buffers(self, arch, input_shape):
        m = build_model(arch, seed=0, input_shape=input_shape)
        x = np.random.default_rng(24).standard_normal((5, *input_shape))
        logits = m.forward(x)[0].copy()
        assert m._workspace.size and m._walks
        m.release_buffers()
        assert m._workspace.size == 0 and not m._walks
        assert np.array_equal(m.forward(x)[0], logits)


class TestConvWorkspace:
    """Both passes of a conv stack share the model's one workspace array:
    a cols region, then one output slot per conv, used as prefixes."""

    @staticmethod
    def fresh_logits(m, x):
        """Logits of a walk in which every layer makes fresh arrays."""
        for layer in m.layers:
            x = layer.forward(x, record=False)
        return x

    @pytest.mark.parametrize("rows", [7, 1])
    def test_results_survive_a_training_step_and_a_later_forward(self, rows):
        # the first pass sizes the workspace, so the later ones overwrite
        # what the captured pass wrote; with one sample a reshape of a conv
        # activation is a view, so a capture must copy
        rng = np.random.default_rng(25)
        m = build_model(TWO_CONV, seed=4, input_shape=(1, 6, 6))
        m.forward(rng.standard_normal((11, 1, 6, 6)), capture_probes=True)
        out = m.forward(rng.standard_normal((rows, 1, 6, 6)), capture_probes=True)
        kept = [a.copy() for a in (out[0], out[1], *out[2])]
        compute_gradients(m, rng.standard_normal((5, 1, 6, 6)), rng.integers(0, 3, size=5))
        m.forward(rng.standard_normal((rows, 1, 6, 6)), capture_probes=True)
        for got, want in zip((out[0], out[1], *out[2]), kept, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_evaluate_with_a_tail_matches_fresh_forwards(self):
        # 1074 rows in groups of EVAL_ROWS (512) leave a 50-row tail; a
        # training step in between packs its cols where evaluation starts every conv's
        rng = np.random.default_rng(26)
        m = build_model(TWO_CONV, seed=6, input_shape=(1, 6, 6))
        n, group = 2 * model_mod.EVAL_ROWS + 50, model_mod.EVAL_ROWS
        x = rng.standard_normal((n, 1, 6, 6))
        y = rng.integers(0, 3, size=n)
        want_loss, want_correct = 0.0, 0
        for start in range(0, n, group):
            logits = self.fresh_logits(m, x[start:start + group])
            want_loss += cross_entropy(logits, y[start:start + group]) * len(logits)
            want_correct += int((logits.argmax(axis=1) == y[start:start + group]).sum())
        want = (float(want_loss / n), want_correct / n)
        for _ in range(2):
            assert evaluate(m, x, y) == want
            grads = compute_gradients(m, x[:20], y[:20])
            assert evaluate(m, x, y) == want
            assert compute_gradients(m, x[:20], y[:20]) == grads

    def test_second_evaluate_allocates_less_than_one_batch_of_cols(self):
        # the first conv's cols of one 512-row batch are 9 * 14 * 14 * 512
        # doubles (7.2 MB); a second evaluate reuses the workspace and
        # allocates only the batch-last copy of each input batch and the flatten
        arch = [{"kind": "conv", "out_channels": 8, "kernel": 3, "stride": 2, "pad": 1},
                {"kind": "relu"},
                {"kind": "conv", "out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
                {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 10}]
        rng = np.random.default_rng(27)
        m = build_model(arch, seed=2, input_shape=(1, 28, 28))
        x = rng.standard_normal((1100, 1, 28, 28))
        y = rng.integers(0, 10, size=1100)
        evaluate(m, x, y)
        tracemalloc.start()
        try:
            evaluate(m, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 14 * 14 * 512 * 8

    @pytest.mark.parametrize("arch,input_shape,step,per_sample", [
        # TWO_CONV on 1x6x6: 1*9*6*6 cols for the first conv, 2*9*2*2 for the
        # second, and outputs 2*6*6 and 3*2*2; the MLP's one hidden output is 8
        (TWO_CONV, (1, 6, 6), False, 324 + 84), (TWO_CONV, (1, 6, 6), True, 324 + 72 + 84),
        ("mlp:3-8-2", (3,), True, 8)])
    def test_cols_buffer_fits_the_pass(self, arch, input_shape, step, per_sample):
        # a forward reuses the widest conv's cols; a training step packs them all
        m = build_model(arch, seed=0, input_shape=input_shape)
        x = np.random.default_rng(30).standard_normal((5, *input_shape))
        if step:
            compute_gradients(m, x, np.arange(5) % 2)
        else:
            m.forward(x)
        assert m._workspace.size == per_sample * 5

    # per row: widest cols, every conv's cols, hidden outputs. TWO_CONV on
    # 1x6x6: cols 1*9*6*6 and 2*9*2*2, outputs 2*6*6 and 3*2*2; R = 1285 rows
    NETS = {"conv": (TWO_CONV, (1, 6, 6), 324, 324 + 72, 84),
            "mlp": ("mlp:3-8-2", (3,), 0, 0, 8)}   # R = 65536 rows

    @pytest.mark.parametrize("net,b,n", [("conv", 5, 7), ("conv", 5, 3000), ("conv", 1500, 7),
                                         ("mlp", 5, 7), ("mlp", 5, 70000), ("mlp", 70000, 7)])
    def test_workspace_is_the_largest_pass(self, net, b, n):
        # a training step on b rows packs every conv's cols; a forward on n
        # rows runs in blocks of r rows, each reusing the widest conv's cols
        arch, input_shape, widest, packed, outputs = self.NETS[net]
        m = build_model(arch, seed=0, input_shape=input_shape)
        rng = np.random.default_rng(28)
        compute_gradients(m, rng.standard_normal((b, *input_shape)), np.arange(b) % 2)
        m.forward(rng.standard_normal((n, *input_shape)))
        r = -(-n // -(-n // m._block_rows))
        assert m._workspace.size == max(b * (packed + outputs), r * (widest + outputs))


DIGITS_CONV = [{"kind": "conv", "out_channels": 8, "kernel": 3, "stride": 2, "pad": 1},
               {"kind": "relu"},
               {"kind": "conv", "out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
               {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 10}]


class TestBlockedPass:
    """An inference pass walks the stack once per block of at most
    ``_block_rows`` rows, in equal blocks; each block writes its rows of
    the logits and its columns of each capture block."""

    @staticmethod
    def fresh_blocks(m, x, rows):
        """``forward``'s results from walks in which every layer makes fresh
        arrays, one per block of ``rows`` rows, concatenated."""
        logits, captured = [], []
        for s0 in range(0, len(x), rows):
            h, blocks = x[s0:s0 + rows], []
            for layer in m.layers:
                h = layer.forward(h, record=False)
                if layer.name == "relu":
                    blocks.append(np.ascontiguousarray(h.swapaxes(0, 1)).reshape(h.shape[1], -1))
            logits.append(h)
            captured.append(blocks)
        logits = np.concatenate(logits)
        probs = softmax(logits)
        sites = [np.concatenate(site, axis=1) for site in zip(*captured, strict=True)]
        return logits, probs, (*sites, probs.T)

    def test_block_rows_of_the_benchmark_archs(self):
        # per row: the widest cols (8*9*7*7) and the hidden outputs
        # (8*14*14 + 16*7*7), 5880 doubles; the MLPs never block at 512 rows
        digits = build_model(DIGITS_CONV, seed=0, input_shape=(1, 28, 28))
        assert digits._block_rows == model_mod.INFERENCE_BYTES // (8 * 5880)
        assert build_model("mlp:784-128-64-10", seed=0, input_shape=(1, 28, 28))._block_rows >= 512
        assert build_model("mlp:2-64-64-6", seed=0)._block_rows >= 512

    def test_blocked_pass_matches_fresh_walks_per_block(self):
        rng = np.random.default_rng(31)
        m = build_model(DIGITS_CONV, seed=3, input_shape=(1, 28, 28))
        r = m._block_rows
        for b in (1, r - 1, r, r + 1, 3 * r + 5, 512):
            x = rng.standard_normal((b, 1, 28, 28))
            n_blocks = -(-b // r)
            got = m.forward(x, capture_probes=True)
            want = self.fresh_blocks(m, x, -(-b // n_blocks))
            for a, w in zip((got[0], got[1], *got[2]), (want[0], want[1], *want[2]), strict=True):
                assert a.shape == w.shape and a.tobytes() == w.tobytes()

    def test_blocks_are_equal(self, monkeypatch):
        m = build_model(DIGITS_CONV, seed=3, input_shape=(1, 28, 28))
        head, rows = m.layers[-1], []

        def forward(x, *args, **kwargs):
            rows.append(len(x))
            return Dense.forward(head, x, *args, **kwargs)

        monkeypatch.setattr(head, "forward", forward)
        m.forward(np.zeros((100, 1, 28, 28)))
        # at R = 89, 100 rows run as 2 x 50, not 89 + 11
        size = -(-100 // -(-100 // m._block_rows))
        assert rows == [min(size, 100 - s0) for s0 in range(0, 100, size)]
        rows.clear()
        compute_gradients(m, np.zeros((100, 1, 28, 28)), np.zeros(100, dtype=int))
        assert rows == [100]

    def test_workspace_does_not_grow_with_the_batch(self):
        # each 512-row group of evaluate spans 6 blocks of R = 89 rows
        rng = np.random.default_rng(32)
        m = build_model(DIGITS_CONV, seed=3, input_shape=(1, 28, 28))
        evaluate(m, rng.standard_normal((1100, 1, 28, 28)), rng.integers(0, 10, size=1100))
        m.forward(rng.standard_normal((2000, 1, 28, 28)), capture_probes=True)
        assert m._workspace.nbytes <= model_mod.INFERENCE_BYTES

    def test_second_evaluate_peaks_at_a_few_blocks(self):
        # measured: 0.63 MB, mostly the batch-last copy of one 86-row block's
        # input (0.54 MB), then the group's logits and loss terms; 1.5 MB
        # leaves a margin yet stays far under one 512-row group's 24 MB
        rng = np.random.default_rng(33)
        m = build_model(DIGITS_CONV, seed=3, input_shape=(1, 28, 28))
        x, y = rng.standard_normal((1100, 1, 28, 28)), rng.integers(0, 10, size=1100)
        evaluate(m, x, y)
        tracemalloc.start()
        try:
            evaluate(m, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def reference_softmax(logits):
    """``softmax`` as it was written with a row-wise ``max(axis=1)``."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_cross_entropy(logits, labels):
    """``cross_entropy`` as it was written with a row-wise ``max(axis=1)``."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))


def head_logits(rng, n, c):
    """(n, c) logits up to +-700, with tied row maxima and rows of +-0.0."""
    logits = rng.uniform(-1.0, 1.0, size=(n, c)) * rng.choice([1.0, 30.0, 700.0], size=(n, 1))
    for i in range(0, n, 3):   # a tie for the row maximum
        j, k = rng.choice(c, size=2, replace=False)
        logits[i, j] = logits[i, k] = np.abs(logits[i]).max()
    for i in range(1, n, 5):   # a zero maximum: +0.0 and -0.0 mixed with negatives
        logits[i] = np.where(rng.random(c) < 0.5, 0.0, -0.0)
        logits[i, rng.random(c) < 0.3] = -rng.uniform(0.0, 700.0)
    return logits


class TestLossHead:
    """The loss head gives the bits of the row-wise ``max(axis=1)`` code."""

    @pytest.mark.parametrize("c", range(2, 13))
    @pytest.mark.parametrize("n", [1, 2, 7, 127, 128, 129, 600])
    def test_fused_head_matches_softmax_and_cross_entropy(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        logits = head_logits(rng, n, c)
        labels = rng.integers(0, c, size=n)
        before = logits.copy()
        loss, grad = softmax_cross_entropy(logits, labels)
        assert logits.tobytes() == before.tobytes()
        want_loss = reference_cross_entropy(logits, labels)
        want_grad = reference_softmax(logits)
        want_grad[np.arange(n), labels] -= 1.0
        want_grad /= n
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert np.float64(cross_entropy(logits, labels)).tobytes() == \
            np.float64(want_loss).tobytes()
        assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()

    @pytest.mark.parametrize("c", [1, 2, 6, 8, 9, 12, 33])
    def test_row_max_matches_numpy_on_special_values(self, c):
        rng = np.random.default_rng(c)
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0])
        logits = rng.choice(values, size=(300, c))
        # values equal and NaN where numpy's is; a zero maximum may differ in sign
        assert np.array_equal(_row_max(logits), logits.max(axis=1), equal_nan=True)

    def test_compute_gradients_reads_the_fused_head(self):
        rng = np.random.default_rng(21)
        m = build_model("mlp:5-7-6", seed=2)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 6, size=40)
        loss = compute_gradients(m, x, y)
        got = m.grads.copy()
        logits = m._logits(x, False, record=True)[0]
        assert loss == reference_cross_entropy(logits, y)
        grad = reference_softmax(logits)
        grad[np.arange(40), y] -= 1.0
        grad /= 40
        for layer in reversed(m.layers):
            grad = layer.backward(grad)
        assert m.grads.tobytes() == got.tobytes()


class TestMalformedBatches:
    """Malformed batches raise ConfigError before any pass runs."""

    def _model(self):
        return build_model("mlp:2-4-3", seed=0)

    def test_empty_batch_in_forward(self):
        with pytest.raises(ConfigError, match="non-empty batch"):
            self._model().forward(np.zeros((0, 2)))

    def test_empty_batch_in_compute_gradients(self):
        with pytest.raises(ConfigError, match="non-empty batch"):
            compute_gradients(self._model(), np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 2.0]), np.array([True, False, True])])
    @pytest.mark.parametrize("call", ["compute_gradients", "evaluate"])
    def test_non_integer_labels(self, call, labels):
        fn = compute_gradients if call == "compute_gradients" else evaluate
        with pytest.raises(ConfigError, match=f"labels must be integers, got dtype {labels.dtype}"):
            fn(self._model(), np.zeros((3, 2)), labels)

    @pytest.mark.parametrize("labels", [np.array([0, 1]), np.array([0, 1, 2, 0]),
                                        np.array([[0], [1], [2]])])
    @pytest.mark.parametrize("call", ["compute_gradients", "evaluate"])
    def test_label_count_differs_from_rows(self, call, labels):
        fn = compute_gradients if call == "compute_gradients" else evaluate
        with pytest.raises(ConfigError, match=re.escape(
                f"labels of shape {labels.shape} for a batch of 3 rows")):
            fn(self._model(), np.zeros((3, 2)), labels)

    def test_out_of_range_labels_in_evaluate(self):
        # a negative label used to index the last logit and count as a wrong answer
        with pytest.raises(ConfigError, match=re.escape("labels must lie in [0, 3)")):
            evaluate(self._model(), np.zeros((3, 2)), np.array([0, -1, 2]))


class TestGradients:
    def test_fd_oracle_random_mlp(self):
        # random [4,5,3] stack, 8 samples, as the reference configuration
        rng = np.random.default_rng(42)
        m = build_model("mlp:4-5-3", seed=42)
        x = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, size=8)
        assert_grads_match(m, x, y)

    def test_fd_oracle_conv(self):
        rng = np.random.default_rng(7)
        m = build_model(TWO_CONV, seed=9, input_shape=(1, 6, 6))
        x = rng.standard_normal((5, 1, 6, 6))
        y = rng.integers(0, 3, size=5)
        assert_grads_match(m, x, y)

    def test_fd_oracle_flatten_of_flat_input(self):
        # a flatten between dense layers sees (b, n) and hands back its gradient as is
        arch = [{"kind": "dense", "out": 5}, {"kind": "relu"}, {"kind": "flatten"},
                {"kind": "dense", "out": 3}]
        rng = np.random.default_rng(11)
        m = build_model(arch, seed=3, input_shape=(4,))
        assert_grads_match(m, rng.standard_normal((6, 4)), rng.integers(0, 3, size=6))

    @pytest.mark.parametrize("arch,input_shape", [
        ("mlp:16-8-6-3", (1, 4, 4)), (TWO_CONV, (1, 6, 6))])
    def test_parameter_grads_match_full_backward(self, arch, input_shape):
        # compute_gradients stops at the first trainable layer; a backward
        # through every layer, input gradients included, gives the same bits
        rng = np.random.default_rng(3)
        m = build_model(arch, seed=4, input_shape=input_shape)
        x = rng.standard_normal((6, *input_shape))
        y = rng.integers(0, 3, size=6)
        compute_gradients(m, x, y)
        got = m.grads.copy()
        grad = softmax(m._logits(x, False, record=True)[0])
        grad[np.arange(6), y] -= 1.0
        grad /= 6
        for layer in reversed(m.layers):
            grad = layer.backward(grad)
        assert grad.shape == x.shape
        assert np.array_equal(got, m.grads)

    def test_single_neuron_hand_step(self):
        # squared loss on y = w*x with w=1, x=2, target 1:
        # dL/dw = 2*(y - t)*x = 4, so one step at lr 0.1 gives w = 1 - 0.4
        m = build_model("mlp:1-1", seed=0)
        layer = m.layers[0]
        layer.params["W"][...] = 1.0
        layer.params["b"][...] = 0.0
        x = np.array([[2.0]])
        y = layer.forward(x)
        dy = 2.0 * (y - 1.0)
        layer.backward(dy)
        Optimizer(OptimizerSpec(lr=0.1, momentum=0.0, weight_decay=0.0)).step(m)
        assert layer.params["W"][0, 0] == 1.0 - 0.1 * 4.0
        assert layer.params["b"][0] == 0.0 - 0.1 * 2.0


def loop_conv(x, W, bias, stride, pad, grad):
    """Direct convolution by explicit loops over samples, filters and output
    positions, with its backward pass for the upstream gradient ``grad``.
    Returns (y, dx, dW, db); shares no code with Conv2d."""
    b, c, h, w = x.shape
    f, _, k, _ = W.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    y = np.zeros((b, f, oh, ow))
    dxp = np.zeros_like(xp)
    dW = np.zeros_like(W)
    for n in range(b):
        for o in range(f):
            for r in range(oh):
                for q in range(ow):
                    rows = slice(r * stride, r * stride + k)
                    cols = slice(q * stride, q * stride + k)
                    y[n, o, r, q] = np.sum(xp[n, :, rows, cols] * W[o]) + bias[o]
                    dW[o] += grad[n, o, r, q] * xp[n, :, rows, cols]
                    dxp[n, :, rows, cols] += grad[n, o, r, q] * W[o]
    return y, dxp[:, :, pad:pad + h, pad:pad + w], dW, grad.sum(axis=(0, 2, 3))


def pad_im2col(x, k, stride, pad, oh, ow):
    """im2col over an ``np.pad`` copy of the batch-last input."""
    b, c = x.shape[:2]
    xp = np.pad(x.transpose(1, 2, 3, 0), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((c, k, k, oh, ow, b))
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(c * k * k, oh * ow * b)


def pad_col2im(cols, x_shape, k, stride, pad, oh, ow):
    """col2im accumulating into a padded buffer, cropped at the end."""
    b, c, h, w = x_shape
    cols = cols.reshape(c, k, k, oh, ow, b)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
    for i in range(k):
        for j in range(k):
            xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, i, j]
    return xp[:, pad:pad + h, pad:pad + w].transpose(3, 0, 1, 2)


# (batch, in, out, h, w, kernel, stride, pad); several cases leave
# (h + 2 pad - k) or (w + 2 pad - k) not divisible by the stride
CONV_GEOMETRIES = [
    (1, 1, 1, 5, 5, 1, 1, 0),
    (2, 3, 4, 5, 7, 3, 1, 1),
    (3, 2, 5, 6, 8, 3, 2, 0),
    (1, 4, 2, 7, 6, 3, 2, 2),
    (2, 1, 3, 4, 5, 1, 2, 1),
    (2, 3, 2, 9, 4, 3, 1, 2),
    (1, 2, 6, 8, 11, 3, 2, 1),
    # pad >= kernel (whole taps fall in the padding), stride > kernel (skipped inputs)
    (2, 2, 3, 5, 4, 2, 1, 3),
    (1, 1, 2, 3, 3, 1, 2, 2),
    (2, 2, 2, 8, 7, 2, 3, 1),
    (3, 1, 2, 10, 9, 3, 4, 0),
]


class TestConv:
    @pytest.mark.parametrize("b,c,f,h,w,k,stride,pad", CONV_GEOMETRIES)
    def test_im2col_col2im_match_padded_reference(self, b, c, f, h, w, k, stride, pad):
        rng = np.random.default_rng(b * 1000 + c * 100 + f * 10 + k)
        layer = Conv2d(c, f, k, stride, pad, rng=np.random.default_rng(0))
        x = rng.standard_normal((b, c, h, w))
        _, oh, ow = layer.output_shape((c, h, w))
        # a reused workspace holds stale values: every entry must be written
        stale = np.full(c * k * k * oh * ow * b, np.nan)
        cols = layer._im2col(x, oh, ow, stale)
        assert cols.tobytes() == pad_im2col(x, k, stride, pad, oh, ow).tobytes()
        g = rng.standard_normal(cols.shape)
        got = layer._col2im(g, x.shape, oh, ow)
        assert got.tobytes() == pad_col2im(g, x.shape, k, stride, pad, oh, ow).tobytes()
        assert got.transpose(1, 2, 3, 0).flags.c_contiguous

    @pytest.mark.parametrize("b,c,f,h,w,k,stride,pad", CONV_GEOMETRIES)
    def test_matches_loop_reference(self, b, c, f, h, w, k, stride, pad):
        rng = np.random.default_rng(b * 1000 + c * 100 + f * 10 + k)
        layer = Conv2d(c, f, k, stride, pad, rng=rng)
        layer.params["b"][...] = rng.standard_normal(f)
        x = rng.standard_normal((b, c, h, w))
        y = layer.forward(x)
        grad = rng.standard_normal(y.shape)
        dx = layer.backward(grad)
        ref = loop_conv(x, layer.params["W"], layer.params["b"], stride, pad, grad)
        for got, want in zip((y, dx, layer.grads["W"], layer.grads["b"]), ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_batch_last_view_input_bit_identical(self):
        rng = np.random.default_rng(12)
        layer = Conv2d(3, 4, 3, 2, 1, rng=rng)
        x = rng.standard_normal((5, 3, 9, 8))
        x_view = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        assert not x_view.flags.c_contiguous
        y = layer.forward(x)
        grad = rng.standard_normal(y.shape)
        dx = layer.backward(grad)
        y_view = layer.forward(x_view)
        dx_view = layer.backward(
            np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2))
        assert np.array_equal(y, y_view) and np.array_equal(dx, dx_view)

    def test_backward_that_overwrote_cols_cannot_run_again(self):
        rng = np.random.default_rng(14)
        layer = Conv2d(2, 3, 3, 1, 1, rng=rng)
        y = layer.forward(rng.standard_normal((2, 2, 5, 5)))
        grad = rng.standard_normal(y.shape)
        layer.backward(grad, input_grad=False)
        dW = layer.grads["W"].copy()
        layer.backward(grad)
        assert np.array_equal(layer.grads["W"], dW)
        with pytest.raises(NeveError, match="backward needs a forward"):
            layer.backward(grad)

    def test_stack_matches_loop_reference(self):
        # conv outputs reach the next conv as (b, c, h, w) views of
        # batch-last buffers; the loop reference takes plain arrays
        rng = np.random.default_rng(13)
        m = build_model(TWO_CONV, seed=6, input_shape=(1, 6, 6))
        conv1, conv2, head = m.layers[0], m.layers[2], m.layers[5]
        for layer in (conv1, conv2, head):
            layer.params["b"][...] = rng.standard_normal(layer.params["b"].shape)
        x = rng.standard_normal((4, 1, 6, 6))
        y = rng.integers(0, 3, size=4)
        compute_gradients(m, x, y)
        logits = m.forward(x)[0]

        def conv(inp, layer, grad=None):
            p = layer.params
            if grad is None:
                grad = np.zeros((len(inp), layer.out_channels,
                                 *layer.output_shape(inp.shape[1:])[1:]))
            return loop_conv(inp, p["W"], p["b"], layer.stride, layer.pad, grad)

        z1 = conv(x, conv1)[0]
        a1 = np.maximum(z1, 0.0)
        z2 = conv(a1, conv2)[0]
        flat = np.maximum(z2, 0.0).reshape(4, -1)
        ref_logits = flat @ head.params["W"] + head.params["b"]
        e = np.exp(ref_logits - ref_logits.max(axis=1, keepdims=True))
        d_logits = e / e.sum(axis=1, keepdims=True)
        d_logits[np.arange(4), y] -= 1.0
        d_logits /= 4
        d_z2 = (d_logits @ head.params["W"].T).reshape(z2.shape) * (z2 > 0)
        _, d_a1, dW2, db2 = conv(a1, conv2, d_z2)
        _, _, dW1, db1 = conv(x, conv1, d_a1 * (z1 > 0))
        pairs = [(logits, ref_logits), (head.grads["W"], flat.T @ d_logits),
                 (head.grads["b"], d_logits.sum(axis=0)), (conv2.grads["W"], dW2),
                 (conv2.grads["b"], db2), (conv1.grads["W"], dW1), (conv1.grads["b"], db1)]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestParameterStore:
    """Every layer's weights and gradients are views of ``Model.params`` and
    ``Model.grads``, laid out in stack order, and cannot be rebound."""

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("arch,input_shape", [("mlp:16-8-6-3", (1, 4, 4)),
                                                  (TWO_CONV, (1, 6, 6))])
    def test_layer_arrays_view_the_flat_vectors_in_stack_order(self, arch, input_shape, kind):
        m = build_model(arch, seed=3, input_shape=input_shape)
        opt = Optimizer(OptimizerSpec(kind=kind, weight_decay=1e-3))
        rng = np.random.default_rng(31)
        x = rng.standard_normal((5, *input_shape))
        y = rng.integers(0, 3, size=5)
        assert np.isnan(m.grads).all()
        for steps in range(3):
            start = 0
            for layer in m.layers:
                assert layer.params.keys() == layer.grads.keys()
                for name, p in layer.params.items():
                    stop = start + p.size
                    for view, flat in ((p, m.params), (layer.grads[name], m.grads)):
                        assert view.flags.c_contiguous and view.size == stop - start
                        assert np.shares_memory(view, flat[start:stop])
                        assert not np.shares_memory(view, flat[:start])
                        assert not np.shares_memory(view, flat[stop:])
                    start = stop
            assert start == m.params.size == m.grads.size
            assert np.isfinite(m.grads).all() == (steps > 0)
            backward_and_step(m, x, y, opt)

    def test_rebinding_a_parameter_raises(self):
        m = build_model(TWO_CONV, seed=0, input_shape=(1, 6, 6))
        before = m.params.copy()
        for mapping in (m.layers[0].params, m.layers[0].grads, m.layers[-1].params):
            with pytest.raises(TypeError):
                mapping["W"] = np.zeros_like(mapping["W"])
        assert np.array_equal(m.params, before)


class TestOptimizers:
    def _setup(self, kind, **kw):
        m = build_model("mlp:3-4-2", seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        return m, Optimizer(OptimizerSpec(kind=kind, **kw)), x, y

    def test_sgd_zero_lr_keeps_parameters(self):
        m, opt, x, y = self._setup("sgd", lr=0.0, momentum=0.9, weight_decay=1e-4)
        before = m.params.copy()
        backward_and_step(m, x, y, opt)
        assert np.array_equal(m.params, before)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_step_before_any_gradient_names_the_parameter(self, kind):
        m, opt, _, _ = self._setup(kind)
        before = m.params.copy()
        with pytest.raises(NeveError, match=r"parameter 0 has no gradient; call compute_gradients"):
            opt.step(m)
        assert np.array_equal(before, m.params)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_step_on_a_second_model_names_both_sizes(self, kind):
        # the slots are sized by the first model stepped: 27 parameters, then 51
        opt = Optimizer(OptimizerSpec(kind=kind))
        x, y = np.random.default_rng(0).standard_normal((6, 2)), np.arange(6) % 3
        backward_and_step(build_model("mlp:2-4-3", seed=1), x, y, opt)
        m = build_model("mlp:2-8-3", seed=1)
        compute_gradients(m, x, y)
        before = m.params.copy()
        with pytest.raises(NeveError, match=r"this optimizer steps 27 parameters, not 51"):
            opt.step(m)
        assert np.array_equal(before, m.params)

    def test_sgd_momentum_matches_reference_recurrence(self):
        m, opt, x, y = self._setup("sgd", lr=0.1, momentum=0.9, weight_decay=0.0)
        w_layer = m.layers[0]
        bufs = None
        for _ in range(3):
            w_before = w_layer.params["W"].copy()
            loss = compute_gradients(m, x, y)
            g = w_layer.grads["W"].copy()
            bufs = g if bufs is None else 0.9 * bufs + g
            expected = w_before - 0.1 * bufs
            opt.step(m)
            npt.assert_allclose(w_layer.params["W"], expected, rtol=0, atol=1e-15)
            assert np.isfinite(loss)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_weight_decay_bit_exact(self, momentum):
        m, opt, x, y = self._setup("sgd", lr=0.1, momentum=momentum, weight_decay=1e-3)
        bufs = {}
        for _ in range(3):
            compute_gradients(m, x, y)
            expected = {}
            for i, layer in enumerate(m.layers):
                for n, p in layer.params.items():
                    g = layer.grads[n] + 1e-3 * p
                    if momentum:
                        g = bufs[(i, n)] = g if (i, n) not in bufs else 0.9 * bufs[(i, n)] + g
                    expected[(i, n)] = p - 0.1 * g
            opt.step(m)
            for (i, n), want in expected.items():
                assert np.array_equal(m.layers[i].params[n], want), (i, n)

    def test_adam_first_step_size(self):
        # with bias correction the first Adam step is ~lr * sign(g)
        m, opt, x, y = self._setup("adam", lr=1e-3, weight_decay=0.0)
        w = m.layers[0].params["W"]
        before = w.copy()
        compute_gradients(m, x, y)
        g = m.layers[0].grads["W"].copy()
        opt.step(m)
        step = before - w
        mask = np.abs(g) > 1e-6
        npt.assert_allclose(step[mask], 1e-3 * np.sign(g)[mask], rtol=1e-2)

    def test_adam_matches_reference_recurrence(self):
        # every parameter of a conv net, biases included, bit for bit
        rng = np.random.default_rng(0)
        m = build_model(TWO_CONV, seed=1, input_shape=(1, 6, 6))
        opt = Optimizer(OptimizerSpec(kind="adam", lr=1e-2, weight_decay=1e-3))
        x = rng.standard_normal((6, 1, 6, 6))
        y = rng.integers(0, 3, size=6)
        moments = {}
        for t in range(1, 4):
            compute_gradients(m, x, y)
            expected = {}
            for i, layer in enumerate(m.layers):
                for n, p in layer.params.items():
                    g = layer.grads[n] + 1e-3 * p
                    m1, v1 = moments.get((i, n), (0.0, 0.0))
                    m1 = 0.9 * m1 + (1.0 - 0.9) * g
                    v1 = 0.999 * v1 + (1.0 - 0.999) * g * g
                    moments[i, n] = m1, v1
                    m_hat, v_hat = m1 / (1.0 - 0.9 ** t), v1 / (1.0 - 0.999 ** t)
                    expected[i, n] = p - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            opt.step(m)
            assert len(expected) == 6
            for (i, n), want in expected.items():
                assert np.array_equal(m.layers[i].params[n], want), (i, n)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_second_step_allocates_no_parameter_sized_array(self, kind):
        # the smallest weight of mlp:784-128-64-10 is 64x10 doubles (5 KiB);
        # after the first step every temporary lives in a kept scratch array
        rng = np.random.default_rng(11)
        m = build_model("mlp:784-128-64-10", seed=3)
        opt = Optimizer(OptimizerSpec(kind=kind, lr=1e-2,
                                      momentum=0.9 if kind == "sgd" else 0.0,
                                      weight_decay=1e-3))
        x = rng.standard_normal((128, 784))
        y = rng.integers(0, 10, size=128)
        compute_gradients(m, x, y)
        opt.step(m)
        tracemalloc.start()
        try:
            opt.step(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 10 * 8

    def test_convex_quadratic_monotone_descent(self):
        # 200 SGD steps on a single linear layer with squared loss
        rng = np.random.default_rng(4)
        m = build_model("mlp:5-1", seed=4)
        layer = m.layers[0]
        x = rng.standard_normal((32, 5))
        t = x @ rng.standard_normal((5, 1)) + 0.3
        opt = Optimizer(OptimizerSpec(lr=0.01, momentum=0.0, weight_decay=0.0))
        losses = []
        for _ in range(200):
            y = layer.forward(x)
            losses.append(float(np.mean((y - t) ** 2)))
            layer.backward(2.0 * (y - t) / len(x))
            opt.step(m)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("kwargs,field", [
        ({"kind": "rmsprop"}, "kind"), ({"lr": -0.1}, "lr"), ({"lr": float("nan")}, "lr"),
        ({"momentum": 1.5}, "momentum"), ({"weight_decay": float("nan")}, "weight_decay"),
        ({"weight_decay": -1}, "weight_decay")])
    def test_out_of_range_argument_names_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=rf"^optimizer\.{field} must "):
            OptimizerSpec(**kwargs)

    def test_default_steps_as_the_default_spec(self):
        # one default per setting: the optimizer's defaults are the spec's
        params = []
        for opt in (Optimizer(), Optimizer(OptimizerSpec())):
            m, _, x, y = self._setup("sgd")
            for _ in range(3):
                backward_and_step(m, x, y, opt)
            params.append(m.params.copy())
        assert np.array_equal(*params)


class TestEvaluate:
    def test_uniform_predictor_loss_is_log_k(self):
        m = build_model("mlp:4-6", seed=0)
        m.layers[0].params["W"][...] = 0.0
        m.layers[0].params["b"][...] = 0.0
        x = np.random.default_rng(0).standard_normal((50, 4))
        y = np.random.default_rng(1).integers(0, 6, size=50)
        loss, _ = evaluate(m, x, y)
        npt.assert_allclose(loss, np.log(6), rtol=0, atol=1e-12)

    def test_perfect_predictions(self):
        m = build_model("mlp:3-3", seed=0)
        m.layers[0].params["W"][...] = 50.0 * np.eye(3)
        m.layers[0].params["b"][...] = 0.0
        x = np.eye(3)
        y = np.array([0, 1, 2])
        _, acc = evaluate(m, x, y)
        assert acc == 1.0

    def test_constant_class0_on_balanced_pair(self):
        m = build_model("mlp:2-2", seed=0)
        m.layers[0].params["W"][...] = 0.0
        m.layers[0].params["b"][...] = [5.0, 0.0]
        x = np.random.default_rng(2).standard_normal((10, 2))
        y = np.array([0, 1] * 5)
        _, acc = evaluate(m, x, y)
        assert acc == 0.5

    def test_empty_dataset_rejected(self):
        m = build_model("mlp:2-2", seed=0)
        with pytest.raises(ConfigError):
            evaluate(m, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_accuracy_only_pass_makes_no_cross_entropy(self, monkeypatch):
        # a dataset of three batches, the last one short
        m = build_model("mlp:3-5-4", seed=6)
        x = np.random.default_rng(5).standard_normal((1100, 3))
        y = np.random.default_rng(6).integers(0, 4, size=1100)
        loss, acc = evaluate(m, x, y)
        calls = []
        real = model_mod.cross_entropy
        monkeypatch.setattr(model_mod, "cross_entropy",
                            lambda *a: calls.append(1) or real(*a))
        assert evaluate(m, x, y, with_loss=False) == (None, acc)
        assert calls == []
        assert evaluate(m, x, y) == (loss, acc)
        assert len(calls) == 3

    def test_no_parameter_mutation(self):
        m = build_model("mlp:3-4-2", seed=8)
        before = m.params.copy()
        x = np.random.default_rng(3).standard_normal((20, 3))
        y = np.random.default_rng(4).integers(0, 2, size=20)
        evaluate(m, x, y)
        assert np.array_equal(m.params, before)

    def test_bad_labels_rejected(self):
        m = build_model("mlp:2-2", seed=0)
        opt = Optimizer(OptimizerSpec(lr=0.1, momentum=0.0, weight_decay=0.0))
        with pytest.raises(ConfigError, match="labels"):
            backward_and_step(m, np.zeros((2, 2)), np.array([0, 2]), opt)
