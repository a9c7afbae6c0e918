"""Dataset, loader, split, aux-set and augmentation tests."""

import numpy as np
import numpy.testing as npt
import pytest

from neve.data import (AUGMENT_PAD, Dataset, augment, gen_blobs, gen_digits, load_cifar10,
                       load_idx, make_aux_from_samples, make_aux_noise, split,
                       standardize, write_idx)
from neve.engine import Optimizer, OptimizerSpec, backward_and_step, build_model, evaluate
from neve.errors import ConfigError, DataFormatError


class TestBlobs:
    def test_deterministic(self):
        a = gen_blobs(200, 4, seed=9)
        b = gen_blobs(200, 4, seed=9)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_classes(self):
        ds = gen_blobs(203, 4, seed=0)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 203

    def test_separable_blobs_are_learnable(self):
        # margin >> sigma (centers 4 apart): a linear classifier fits to
        # >= 99% train accuracy
        ds = gen_blobs(400, 2, sigma=0.1, seed=3)
        model = build_model("mlp:2-2", seed=0)
        opt = Optimizer(OptimizerSpec(lr=0.5, momentum=0.0, weight_decay=0.0))
        for _ in range(60):
            backward_and_step(model, ds.samples, ds.labels, opt)
        _, acc = evaluate(model, ds.samples, ds.labels)
        assert acc >= 0.99

    def test_tiny_sigma_near_duplicates(self):
        ds = gen_blobs(20, 2, sigma=1e-9, seed=1)
        for c in range(2):
            pts = ds.samples[ds.labels == c]
            assert np.ptp(pts, axis=0).max() < 1e-7

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_blobs(1, 2)
        with pytest.raises(ConfigError):
            gen_blobs(10, 2, sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match=r"^sigma must lie in \(0, inf\), got "):
            gen_blobs(100, 4, sigma=sigma)


class TestDigits:
    def test_deterministic_and_quantized(self):
        a = gen_digits(50, seed=4)
        b = gen_digits(50, seed=4)
        assert a.samples.tobytes() == b.samples.tobytes()
        npt.assert_array_equal(np.round(a.samples * 255), a.samples * 255)

    def test_shape_and_classes(self):
        ds = gen_digits(40, seed=0)
        assert ds.samples.shape == (40, 1, 28, 28)
        assert ds.n_classes == 10
        assert set(np.unique(ds.labels)) == set(range(10))

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_noise_outside_range_rejected(self, noise):
        with pytest.raises(ConfigError, match=r"^noise must lie in \[0, inf\), got "):
            gen_digits(20, noise=noise)


class TestIdx:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = gen_digits(30, seed=2)
        write_idx(ds, tmp_path / "imgs.idx", tmp_path / "labels.idx")
        back = load_idx(tmp_path / "imgs.idx", tmp_path / "labels.idx")
        assert back.samples.tobytes() == ds.samples.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_magic_bytes(self, tmp_path):
        ds = gen_digits(10, seed=1)
        write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        assert (tmp_path / "i.idx").read_bytes()[:4] == b"\x00\x00\x08\x03"
        assert (tmp_path / "l.idx").read_bytes()[:4] == b"\x00\x00\x08\x01"

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x00\x00\x09\x03" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(p, p)

    def test_truncated_file_is_format_error(self, tmp_path):
        ds = gen_digits(10, seed=1)
        write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        blob = (tmp_path / "i.idx").read_bytes()
        (tmp_path / "trunc.idx").write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataFormatError, match="bytes"):
            load_idx(tmp_path / "trunc.idx", tmp_path / "l.idx")

    def test_length_mismatch(self, tmp_path):
        a = gen_digits(10, seed=1)
        b = gen_digits(20, seed=1)
        write_idx(a, tmp_path / "i10.idx", tmp_path / "l10.idx")
        write_idx(b, tmp_path / "i20.idx", tmp_path / "l20.idx")
        with pytest.raises(DataFormatError, match="images vs"):
            load_idx(tmp_path / "i10.idx", tmp_path / "l20.idx")

    def test_pixel_255_scales_to_one(self, tmp_path):
        import struct
        img = np.full((1, 2, 2), 255, dtype=np.uint8)
        with open(tmp_path / "i.idx", "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 1, 2, 2))
            f.write(img.tobytes())
        with open(tmp_path / "l.idx", "wb") as f:
            f.write(struct.pack(">II", 0x801, 1))
            f.write(b"\x07")
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.samples.max() == 1.0
        assert ds.labels[0] == 7


class TestCifar10:
    def test_synthetic_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 12
        labels = rng.integers(0, 10, n, dtype=np.uint8)
        pixels = rng.integers(0, 256, (n, 3072), dtype=np.uint8)
        records = np.concatenate([labels[:, None], pixels], axis=1)
        p = tmp_path / "data_batch_1.bin"
        p.write_bytes(records.tobytes())
        ds = load_cifar10([p])
        assert ds.samples.shape == (n, 3, 32, 32)
        assert np.array_equal(ds.labels, labels)
        npt.assert_allclose(ds.samples[0].reshape(-1) * 255, pixels[0])

    def test_bad_record_size(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar10([p])


class TestSplit:
    def test_fraction_zero(self):
        ds = gen_blobs(100, 4, seed=0)
        train, val = split(ds, 0.0)
        assert len(train) == 100 and len(val) == 0
        assert train.samples.tobytes() == ds.samples.tobytes()

    def test_ten_percent_arithmetic(self):
        ds = gen_digits(500, seed=0)
        train, val = split(ds, 0.1, seed=1)
        assert (len(train), len(val)) == (450, 50)

    def test_partition_disjoint_exhaustive_deterministic(self):
        ds = gen_blobs(300, 3, seed=5)
        t1, v1 = split(ds, 0.25, seed=7)
        t2, v2 = split(ds, 0.25, seed=7)
        assert t1.samples.tobytes() == t2.samples.tobytes()
        assert v1.samples.tobytes() == v2.samples.tobytes()
        joined = np.concatenate([t1.samples, v1.samples])
        assert len(joined) == len(ds)
        key = lambda arr: sorted(map(tuple, arr))
        assert key(joined) == key(ds.samples)

    def test_stratified_within_one(self):
        ds = gen_digits(1000, seed=0)
        train, val = split(ds, 0.3, seed=2)
        for part, total in ((train, 700), (val, 300)):
            counts = np.bincount(part.labels, minlength=10)
            for c in range(10):
                exact = total * np.bincount(ds.labels)[c] / 1000
                assert abs(counts[c] - exact) <= 1

    def test_empty_train_class_rejected(self):
        ds = gen_blobs(4, 2, seed=0)
        with pytest.raises(ConfigError, match="class"):
            split(ds, 0.9, seed=0)

    @pytest.mark.parametrize("frac", [-0.1, 1.0])
    def test_fraction_outside_unit_interval_rejected(self, frac):
        with pytest.raises(ConfigError, match="fraction"):
            split(gen_blobs(100, 4, seed=0), frac)


class TestSubset:
    @pytest.mark.parametrize("n", [0, -5])
    def test_fewer_than_one_sample_rejected(self, n):
        with pytest.raises(ConfigError, match="at least one sample"):
            gen_blobs(100, 4, seed=0).subset(n)

    @staticmethod
    def source():
        """157 rows of unequal classes; row i holds the value i in both columns."""
        labels = np.random.default_rng(3).choice(4, size=157, p=[0.4, 0.3, 0.2, 0.1])
        return Dataset("toy", np.arange(157.0)[:, None] * np.ones(2), labels, 4)

    @pytest.mark.parametrize("n,seed", [(1, 0), (40, 5), (97, 11), (156, 2)])
    def test_stratified_draw_of_source_rows(self, n, seed):
        ds = self.source()
        sub = ds.subset(n, seed=seed)
        assert len(sub) == n
        counts = np.bincount(sub.labels, minlength=4)
        proportional = n * np.bincount(ds.labels, minlength=4) / len(ds)
        assert np.all(np.abs(counts - proportional) <= 1)
        rows = sub.samples[:, 0].astype(int)
        npt.assert_array_equal(sub.samples, ds.samples[rows])
        npt.assert_array_equal(sub.labels, ds.labels[rows])
        # reference: the first counts[c] rows of each class's permutation,
        # class 0 first, all from one generator seeded with `seed`
        rng = np.random.default_rng(seed)
        reference = np.sort(np.concatenate(
            [rng.permutation(np.flatnonzero(ds.labels == c))[:counts[c]] for c in range(4)]))
        npt.assert_array_equal(rows, reference)

    def test_seed_decides_the_rows(self):
        ds = self.source()
        rows = {seed: ds.subset(60, seed=seed).samples.tobytes() for seed in (1, 2)}
        assert ds.subset(60, seed=1).samples.tobytes() == rows[1]
        assert rows[1] != rows[2]


class TestAuxSets:
    def test_noise_deterministic(self):
        a = make_aux_noise(100, (1, 28, 28), seed=3)
        b = make_aux_noise(100, (1, 28, 28), seed=3)
        assert a.content_hash() == b.content_hash()

    def test_noise_is_standard_normal(self):
        # n = 78 400 values: mean within +-0.05, std within +-0.05
        aux = make_aux_noise(100, (1, 28, 28), seed=0)
        assert -0.05 < aux.samples.mean() < 0.05
        assert 0.95 < aux.samples.std() < 1.05

    def test_singleton_aux(self):
        aux = make_aux_noise(1, (2,), seed=0)
        assert aux.samples.shape == (1, 2)

    def test_heldout_draws_without_replacement(self):
        ds = gen_blobs(50, 2, seed=1)
        aux = make_aux_from_samples(ds.samples, 20, seed=4)
        assert aux.samples.shape == (20, 2)
        pool = set(map(tuple, ds.samples))
        assert all(tuple(s) in pool for s in aux.samples)
        assert len(set(map(tuple, aux.samples))) == 20

    def test_samples_are_read_only(self):
        pool = gen_blobs(10, 2, seed=1).samples
        for aux in (make_aux_noise(3, (2,)), make_aux_from_samples(pool, 3)):
            with pytest.raises(ValueError):
                aux.samples[0, 0] = 5.0
        pool[0, 0] = 5.0        # the caller's own array is not frozen

    def test_count_validation(self):
        ds = gen_blobs(10, 2, seed=1)
        with pytest.raises(ConfigError):
            make_aux_from_samples(ds.samples, 11)
        with pytest.raises(ConfigError):
            make_aux_noise(0, (2,))


class TestAugment:
    def test_pad_crop_preserves_shape(self):
        batch = np.random.default_rng(1).random((6, 3, 32, 32))
        out = augment(batch, np.random.default_rng(2))
        assert out.shape == batch.shape

    def test_each_sample_is_a_padded_window_plain_or_mirrored(self):
        n, h, w, p = 64, 6, 7, AUGMENT_PAD
        batch = np.random.default_rng(3).random((n, 2, h, w))
        out = augment(batch, np.random.default_rng(4))
        padded = np.pad(batch, ((0, 0), (0, 0), (p, p), (p, p)))
        mirrored = []
        for x, y in zip(padded, out):
            windows = [x[:, r:r + h, c:c + w]
                       for r in range(2 * p + 1) for c in range(2 * p + 1)]
            as_is = any(np.array_equal(win, y) for win in windows)
            flipped = any(np.array_equal(win[:, :, ::-1], y) for win in windows)
            assert as_is != flipped
            mirrored.append(flipped)
        assert 0 < sum(mirrored) < n

    @staticmethod
    def loop_augment(batch, rng):
        """pad_crop_flip one sample at a time, drawing offsets then flips."""
        n, c, h, w = batch.shape
        p = AUGMENT_PAD
        padded = np.pad(batch, ((0, 0), (0, 0), (p, p), (p, p)))
        offs = rng.integers(0, (2 * p + 1, 2 * p + 1), size=(n, 2))
        flips = rng.random(n) < 0.5
        out = np.empty((n, c, h, w))
        for i in range(n):
            r0, c0 = offs[i]
            crop = padded[i, :, r0:r0 + h, c0:c0 + w]
            out[i] = crop[:, :, ::-1] if flips[i] else crop
        return out

    @pytest.mark.parametrize("shape", [(40, 1, 28, 28), (33, 3, 8, 11), (1, 3, 5, 4)])
    def test_matches_per_sample_loop(self, shape):
        batch = np.random.default_rng(6).standard_normal(shape)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            out = augment(batch, rng)
            assert out.tobytes() == self.loop_augment(batch, ref_rng).tobytes()
            assert out.shape == shape and out.flags.c_contiguous
        assert rng.random() == ref_rng.random()

    def test_seeded_generator_reproduces(self):
        batch = np.random.default_rng(5).random((8, 1, 10, 10))
        out1 = augment(batch, np.random.default_rng(42))
        out2 = augment(batch, np.random.default_rng(42))
        assert out1.tobytes() == out2.tobytes()


class TestStandardize:
    def test_reference_statistics(self):
        ds = gen_digits(200, seed=0)
        out, = standardize(ds)
        assert abs(out.samples.mean()) < 1e-12
        assert out.samples.std() == pytest.approx(1.0, abs=1e-12)

    def test_other_sets_share_reference_transform(self):
        train = gen_digits(200, seed=0)
        test = gen_digits(50, seed=1)
        t1, t2 = standardize(train, test)
        mean = train.samples.mean()
        std = train.samples.std()
        npt.assert_allclose(t2.samples, (test.samples - mean) / std, atol=1e-12)
