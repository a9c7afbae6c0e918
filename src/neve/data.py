"""Datasets, loaders, splits, augmentation and auxiliary-set builders.

An auxiliary set is a read-only array of label-free probe inputs. The
arrays of a ``Dataset`` from ``gen_blobs``, ``gen_digits`` or a file
loader are writable; the runner's ``load_dataset`` makes them read-only
(an in-place write raises ValueError) and reuses the last loaded (train,
test) pair across runs. Every random choice is driven by an explicit seed
or a caller-supplied generator. The functions take plain arguments, which
the run configuration's ``DatasetSpec`` names and checks when it is built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, check_labels, check_value

IDX_DTYPE_U8 = 0x08
IDX_IMAGE_MAGIC = 0x00000803   # u8, 3 dimensions
IDX_LABEL_MAGIC = 0x00000801   # u8, 1 dimension


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: float64 inputs plus labels that pass ``errors.check_labels``."""

    name: str
    samples: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "labels", check_labels(
            self.labels, len(self.samples), self.n_classes, f"{self.name}: "))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.samples.shape[1:]

    def take(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        return Dataset(name or self.name, self.samples[indices],
                       self.labels[indices], self.n_classes)

    def subset(self, n: int, seed: int = 0) -> "Dataset":
        """Deterministic stratified subset of ``n >= 1`` samples."""
        if n < 1:
            raise ConfigError(f"{self.name}: a subset needs at least one sample, got {n}")
        if n >= len(self):
            return self
        return self.take(_stratified_draw(self.labels, self.n_classes, n, seed),
                         f"{self.name}[{n}]")


def _stratified_counts(labels: np.ndarray, n_classes: int, total: int) -> list[int]:
    class_sizes = np.bincount(labels, minlength=n_classes)
    counts = [int(round(total * s / len(labels))) for s in class_sizes]
    # nudge rounding drift onto the largest classes, keeping each within +-1
    drift = total - sum(counts)
    order = np.argsort(-class_sizes)
    i = 0
    while drift != 0:
        c = order[i % n_classes]
        step = 1 if drift > 0 else -1
        if 0 <= counts[c] + step <= class_sizes[c]:
            counts[c] += step
            drift -= step
        i += 1
    return counts


def _stratified_draw(labels: np.ndarray, n_classes: int, total: int, seed: int) -> np.ndarray:
    """Sorted indices of ``total`` rows, each class's share drawn as the
    first rows of its permutation, class 0 first, from ``default_rng(seed)``."""
    counts = _stratified_counts(labels, n_classes, total)
    rng = np.random.default_rng(seed)
    return np.sort(np.concatenate([rng.permutation(np.flatnonzero(labels == c))[:counts[c]]
                                   for c in range(n_classes)]))


def split(dataset: Dataset, frac: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Label-stratified partition into (train, validation) that holds out
    ``frac`` of the samples, seeded by ``seed``; deterministic, disjoint
    and exhaustive."""
    check_value("validation_fraction", frac, "[0, 1)")
    n_val = int(round(frac * len(dataset)))
    if n_val == 0:
        return dataset, dataset.take(np.array([], dtype=np.int64), f"{dataset.name}/val")
    val_idx = _stratified_draw(dataset.labels, dataset.n_classes, n_val, seed)
    mask = np.ones(len(dataset), dtype=bool)
    mask[val_idx] = False
    left = np.bincount(dataset.labels[mask], minlength=dataset.n_classes)
    if left.min() < 1:
        raise ConfigError(f"validation_fraction {frac} would leave class {left.argmin()} "
                          "empty in the train part")
    return (dataset.take(np.flatnonzero(mask), f"{dataset.name}/train"),
            dataset.take(val_idx, f"{dataset.name}/val"))


# ---------------------------------------------------------------------------
# Synthetic generators


def gen_blobs(n: int, k: int, sigma: float = 0.5, seed: int = 0) -> Dataset:
    """``n`` points from ``k`` isotropic Gaussians with balanced classes,
    centred on a circle of radius 2."""
    if k < 1 or n < k:
        raise ConfigError(f"need n >= k >= 1, got n={n}, k={k}")
    check_value("sigma", sigma, "(0, inf)")
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(seed)
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(centers[c] + sigma * rng.standard_normal((cnt, centers.shape[1])))
        ys.append(np.full(cnt, c, dtype=np.int64))
    order = rng.permutation(n)
    return Dataset("blobs", np.concatenate(xs)[order], np.concatenate(ys)[order], k)


_DIGIT_FONT = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


DIGITS_SIZE = 28   # height and width of a ``gen_digits`` image


DIGITS_MAX_SHIFT = (DIGITS_SIZE - 7) // 2   # largest shift: a 7+-row glyph stays on the canvas


def gen_digits(n: int, seed: int = 0, noise: float = 0.25, shift: int = 2) -> Dataset:
    """Procedural 10-class digit images: a 5x7 glyph font upscaled onto a
    square ``DIGITS_SIZE`` canvas with per-sample shift, intensity and pixel
    noise. Values are quantized to the u8 grid so IDX round-trips exactly."""
    if n < 10:
        raise ConfigError(f"need at least one sample per class, got n={n}")
    check_value("shift", shift, f"[0, {DIGITS_MAX_SHIFT}]")
    check_value("noise", noise, "[0, inf)")
    scale = max(1, (DIGITS_SIZE - 2 * shift - 2) // 7)
    glyph_h, glyph_w = 7 * scale, 5 * scale
    templates = {}
    for d, rows in _DIGIT_FONT.items():
        mask = np.array([[int(ch) for ch in row] for row in rows], dtype=np.float64)
        templates[d] = np.kron(mask, np.ones((scale, scale)))
    rng = np.random.default_rng(seed)
    counts = [n // 10 + (1 if c < n % 10 else 0) for c in range(10)]
    images = np.zeros((n, 1, DIGITS_SIZE, DIGITS_SIZE))
    labels = np.empty(n, dtype=np.int64)
    base_r = (DIGITS_SIZE - glyph_h) // 2
    base_c = (DIGITS_SIZE - glyph_w) // 2
    i = 0
    for d, cnt in enumerate(counts):
        for _ in range(cnt):
            canvas = np.zeros((DIGITS_SIZE, DIGITS_SIZE))
            dr, dc = rng.integers(-shift, shift + 1, size=2)
            intensity = rng.uniform(0.7, 1.0)
            r0, c0 = base_r + dr, base_c + dc
            canvas[r0:r0 + glyph_h, c0:c0 + glyph_w] = intensity * templates[d]
            canvas += noise * rng.standard_normal((DIGITS_SIZE, DIGITS_SIZE))
            images[i, 0] = np.clip(canvas, 0.0, 1.0)
            labels[i] = d
            i += 1
    images = np.round(images * 255.0) / 255.0
    order = rng.permutation(n)
    return Dataset("digits", images[order], labels[order], 10)


# ---------------------------------------------------------------------------
# IDX and CIFAR-10 file formats


def _read_be32(f, path) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack(">I", data)[0]


def _load_idx_array(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_be32(f, path)
        dtype_code = (magic >> 8) & 0xFF
        ndim = magic & 0xFF
        if magic >> 16 != 0 or dtype_code != IDX_DTYPE_U8 or not 1 <= ndim <= 3:
            raise DataFormatError(f"{path}: bad IDX magic 0x{magic:08x}")
        dims = [_read_be32(f, path) for _ in range(ndim)]
        payload = f.read()
    expected = int(np.prod(dims))
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} data bytes for dims {dims}, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Parse an IDX image/label pair; pixel bytes are scaled to [0, 1] and
    a grayscale channel axis is added."""
    images = _load_idx_array(images_path)
    labels = _load_idx_array(labels_path)
    if images.ndim != 3:
        raise DataFormatError(f"{images_path}: expected 3-d image data, got {images.ndim}-d")
    if labels.ndim != 1:
        raise DataFormatError(f"{labels_path}: expected 1-d label data, got {labels.ndim}-d")
    if len(images) != len(labels):
        raise DataFormatError(
            f"{len(images)} images vs {len(labels)} labels "
            f"({images_path} / {labels_path})")
    if not len(labels):
        raise DataFormatError(f"{labels_path}: no items")
    if not images.shape[1] or not images.shape[2]:
        raise DataFormatError(f"{images_path}: images of zero size {images.shape[1:]}")
    samples = images.astype(np.float64)[:, None, :, :] / 255.0
    n_classes = int(labels.max()) + 1
    return Dataset(name, samples, labels.astype(np.int64), n_classes)


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a grayscale image dataset as an IDX pair: (n, 1, h, w) samples in
    [0, 1], scaled to u8, and labels of at most 255. A u8 would wrap any other
    value, so one raises ConfigError naming the dataset before a file is written."""
    samples = dataset.samples
    if samples.ndim != 4 or samples.shape[1] != 1:
        raise ConfigError(f"IDX writer needs (n, 1, h, w) samples, got {samples.shape}")
    if samples.size and not 0 <= samples.min() <= samples.max() <= 1:   # NaN fails too
        raise ConfigError(f"{dataset.name}: IDX samples must lie in [0, 1], got range "
                          f"[{samples.min()}, {samples.max()}]")
    if len(dataset.labels) and dataset.labels.max() > 255:
        raise ConfigError(
            f"{dataset.name}: IDX labels must be at most 255, got {dataset.labels.max()}")
    images = np.round(samples[:, 0] * 255.0).astype(np.uint8)
    n, h, w = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


def load_cifar10(paths, name: str = "cifar10") -> Dataset:
    """Read a sequence of CIFAR-10 binary batch files (concatenated
    3073-byte records)."""
    all_images, all_labels = [], []
    for path in paths:
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: size {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}")
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels = records[:, 0]
        if labels.max() > 9:
            raise DataFormatError(f"{path}: label byte {labels.max()} out of range 0..9")
        all_images.append(records[:, 1:].reshape(-1, 3, 32, 32))
        all_labels.append(labels)
    samples = np.concatenate(all_images).astype(np.float64) / 255.0
    labels = np.concatenate(all_labels).astype(np.int64)
    return Dataset(name, samples, labels, 10)


# ---------------------------------------------------------------------------
# Auxiliary sets


def make_aux_noise(count: int, input_shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    """Read-only standard-normal noise inputs; the default probe source (count 100)."""
    if count < 1:
        raise ConfigError(f"aux set needs at least one sample, got {count}")
    samples = np.random.default_rng(seed).standard_normal((count, *input_shape))
    samples.flags.writeable = False
    return samples


def make_aux_from_samples(samples: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    """A read-only copy of ``count`` samples drawn without replacement from ``samples``."""
    if count < 1:
        raise ConfigError(f"aux set needs at least one sample, got {count}")
    if count > len(samples):
        raise ConfigError(f"asked for {count} aux samples but only {len(samples)} available")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(samples))[:count]
    drawn = samples[np.sort(idx)]       # a copy: the caller's array stays writable
    drawn.flags.writeable = False
    return drawn


# ---------------------------------------------------------------------------
# Augmentation

AUGMENT_PAD = 4


def augment(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """pad_crop_flip on one (n, c, h, w) training batch: zero-pad each
    image by ``AUGMENT_PAD``, crop an (h, w) window at a random offset and
    mirror it along the width with probability 1/2. The generator draws
    the offsets first, then the flips. Never applied to aux or evaluation
    passes."""
    if batch.ndim != 4:
        raise ConfigError(
            f"pad_crop_flip needs (n, c, h, w) batches, got shape {batch.shape}")
    n, c, h, w = batch.shape
    p = AUGMENT_PAD
    padded = np.zeros((n, c, h + 2 * p, w + 2 * p))
    padded[:, :, p:p + h, p:p + w] = batch
    rows, cols = rng.integers(0, (2 * p + 1, 2 * p + 1), size=(n, 2)).T
    flips = np.flatnonzero(rng.random(n) < 0.5)
    # the window view's [i, :, r, q] is sample i's (c, h, w) crop at offset (r, q);
    # the gather copies, so the flipped crops are mirrored in place
    view = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))
    out = view[np.arange(n), :, rows, cols]
    out[flips] = out[flips, ..., ::-1]
    return out


def standardize(reference: Dataset, *datasets: Dataset) -> list[Dataset]:
    """Per-channel standardization using the reference set's statistics."""
    axes = tuple(i for i in range(reference.samples.ndim) if i != 1)
    mean = reference.samples.mean(axis=axes, keepdims=True)
    std = reference.samples.std(axis=axes, keepdims=True)
    std = np.where(std < 1e-8, 1.0, std)
    out = []
    for ds in (reference, *datasets):
        out.append(Dataset(ds.name, (ds.samples - mean) / std, ds.labels, ds.n_classes))
    return out
