"""Model assembly, probed forward passes, training steps and evaluation.

A model is an ordered stack of layers ending in a dense classification
head whose logits feed a softmax cross-entropy loss. A probed forward
pass captures the output of every ReLU, in stack order, and then the
head's softmax output; a probed "neuron" is one output unit of a flat
activation or one channel of a (b, c, h, w) activation (spatial
positions are folded into the sample axis).

The model owns a workspace of flat buffers, each grown to the largest
need seen; a smaller batch uses a prefix. In both passes (the inference
pass of ``Model.forward``, ``evaluate`` and probe snapshots; the
recording pass of ``compute_gradients``) each hidden dense or conv layer
writes its output into its own buffer and the convs write their im2col
``cols`` into one shared buffer. Only that packing and the batching
differ. A recording pass is one block: it packs every conv's ``cols``,
since backward reads them all, so training's recorded state lives in the
memory evaluation uses. An inference pass walks the stack once per block
of at most ``Model._block_rows`` rows, the most whose widest ``cols`` and
hidden outputs fit in ``INFERENCE_BYTES``, and starts every conv's
``cols`` at offset 0, since they are dead once its GEMM has run; so its
workspace does not grow with the batch. ``release_buffers`` frees it
all. Every pass applies a ReLU in place to an activation the same pass
produced, never to the caller's batch. What a pass returns is fresh and
written once: each block's head writes its rows of the logits, each block
copies its columns of every capture block, and the probabilities come
from the whole logits.

The loss head computes what a caller reads and nothing twice: a training
step takes its loss and gradient from one softmax pass, ``evaluate``
skips the softmax, and an accuracy-only ``evaluate`` skips the loss. No
GEMM changes shape or batching for it, so every number keeps its bits.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, NumericError, check_type, check_value
from .layers import Conv2d, Dense, Flatten, ReLU, cross_entropy, softmax, softmax_cross_entropy

# workspace bytes an inference pass may hold per block of rows. Smaller
# blocks fit a cache better, but each pays the layers' fixed per-call cost
# (im2col alone makes ~45 numpy calls per conv); 4 MiB was the fastest of
# 0.5, 1, 1.5, 2 and 4 MiB on the benchmark's conv net (2 MiB L2 per core)
INFERENCE_BYTES = 2 ** 22


# layer kind -> its size keys and their defaults; None marks a required key
LAYER_KEYS = {"dense": {"out": None},
              "conv": {"out_channels": None, "kernel": None, "stride": 1, "pad": 0},
              "relu": {}, "flatten": {}}


def _layer(desc, shape: tuple[int, ...], rng: np.random.Generator):
    """The layer a layer dict describes, sized for input of ``shape``; weights from ``rng``."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind not in LAYER_KEYS:
        raise ConfigError(f"a layer is a dict whose 'kind' is one of {', '.join(LAYER_KEYS)}, "
                          f"got {desc!r}")
    for key in desc:
        if key != "kind" and key not in LAYER_KEYS[kind]:
            raise ConfigError(f"{kind} layer has unknown key {key!r}; its keys are "
                              f"{', '.join(['kind', *LAYER_KEYS[kind]])}")
    sizes = {}
    for key, default in LAYER_KEYS[kind].items():
        value = desc.get(key, default)
        if value is None:
            raise ConfigError(f"{kind} layer needs the key {key!r}")
        check_type(f"{kind} layer key {key!r}", value, int)
        sizes[key] = value
    if kind == "dense":
        return Dense(shape[0], sizes["out"], rng=rng)
    if kind == "conv":
        return Conv2d(shape[0], **sizes, rng=rng)
    return ReLU() if kind == "relu" else Flatten()


class Model:
    """Layer stack built from layer dicts (``LAYER_KEYS``) by one walk that
    sizes each layer for the shape before it (ConfigError naming ``arch[i]``
    on a bad dict or shape) and draws its parameters from ``seed``; then
    checks for a dense head and counts probed rows in ``n_probed_neurons``.
    The same walk plans every pass: each layer's workspace buffer, whether
    a ReLU may work in place and which capture slot it fills, and the
    inference block size ``_block_rows``."""

    def __init__(self, descs: list, input_shape: tuple[int, ...], seed: int):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = []
        shape = self.input_shape
        rng = np.random.default_rng(int(seed))
        # one step per layer: (layer, workspace key or None, cols and output
        # values per sample, ReLU in place, capture slot or None)
        self._plan = []
        self._sites = []   # capture slot -> the ReLU's output shape per sample
        owned = False      # some earlier layer is not a Flatten: the pass made x
        for idx, desc in enumerate(descs):
            try:
                layer = _layer(desc, shape, rng)
                shape = layer.output_shape(shape)
            except ConfigError as exc:
                raise ConfigError(f"arch[{idx}]: {exc}") from exc
            self.layers.append(layer)
            key, n_cols, n_out, site = None, 0, 0, None
            if isinstance(layer, ReLU):
                site = len(self._sites)
                self._sites.append(shape)
            elif isinstance(layer, (Dense, Conv2d)):
                key, n_out = idx, math.prod(shape)
                if isinstance(layer, Conv2d):
                    n_cols = layer.in_channels * layer.kernel ** 2 * shape[1] * shape[2]
            self._plan.append((layer, key, n_cols, n_out, owned and site is not None, site))
            owned = owned or not isinstance(layer, Flatten)
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ConfigError("architecture must end in a dense classification head")
        del self._plan[-1]   # the head writes the pass's fresh logits
        n_cols = [step[2] for step in self._plan]
        self._cols_packed, self._cols_widest = sum(n_cols), max(n_cols, default=0)
        per_row = self._cols_widest + sum(step[3] for step in self._plan)
        self._block_rows = max(1, INFERENCE_BYTES // (8 * max(per_row, 1)))
        self.n_classes = shape[0]
        self.n_probed_neurons = sum(site[0] for site in self._sites) + self.n_classes
        self._buffers: dict = {}   # layer index -> its output; "cols" -> the conv cols
        self._walks: dict = {}     # (rows, record, capture) -> ``_steps`` over the buffers

    def release_buffers(self) -> None:
        """Free the workspace; the next pass makes a new one."""
        self._buffers.clear()
        self._walks.clear()

    def _buffer(self, key, shape: tuple[int, ...]) -> np.ndarray:
        """A ``shape`` view of the front of workspace buffer ``key``, grown to
        fit; growing it drops the walks that view the old one."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
            self._walks.clear()
        return buf[:size].reshape(shape)

    def n_parameters(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params.values())

    def trainable(self):
        """Yield (key, params, grads) per trainable layer, in stack order."""
        for idx, layer in enumerate(self.layers):
            if layer.params:
                yield idx, layer.params, layer.grads

    def forward(self, batch: np.ndarray, capture_probes: bool = False):
        """Inference pass over ``batch``: no layer keeps backward state.

        Returns (logits, probabilities, capture): ``capture`` is None unless
        requested, else a tuple of (neurons, vector_len) blocks, one per
        capture site in stack order. The stack runs once per block of at
        most ``_block_rows`` rows (equal blocks, the last one possibly
        shorter), so the pass needs no more workspace than
        ``INFERENCE_BYTES`` (or one row's, if that is more) however large
        the batch; each block writes its rows of the logits and its columns
        of each capture block. Only the logits are scanned for
        non-finite values: NaN and +-inf reach them through every layer (a
        ReLU turns -inf into NaN). When the scan fails, each block is run
        again with a check after each layer, and the NumericError names the
        first layer whose output is not finite in any block, the layer a
        scan of the whole batch would name, since rows are independent. A
        value that never reaches the logits (say, in a border row a strided
        conv skips) cannot change the loss or the gradients and is not
        reported. The returned arrays are fresh: none aliases a buffer that
        a later pass overwrites. An empty batch, or one whose sample shape
        is not ``input_shape``, raises ConfigError.
        """
        logits, captured = self._logits(batch, capture_probes, record=False)
        probs = softmax(logits)
        if captured is None:
            return logits, probs, None
        return logits, probs, (*captured, probs.T.copy())

    def _steps(self, rows: int, record: bool, capture: bool) -> list:
        """The walk for a block of ``rows`` rows: per layer before the head,
        (layer, its workspace arguments, ReLU in place, capture slot or
        None). Kept until the workspace grows or is released."""
        steps = self._walks.get((rows, record, capture))
        if steps is not None:
            return steps
        cols = self._buffer("cols", ((self._cols_packed if record else self._cols_widest) * rows,))
        start, steps = 0, []
        for layer, key, n_cols, n_out, in_place, site in self._plan:
            kwargs = {}
            if key is not None:
                kwargs = {"cols": cols[start:start + n_cols * rows],
                          "out": self._buffer(key, (rows, n_out))}
                start += n_cols * rows if record else 0
            steps.append((layer, kwargs, in_place, site if capture else None))
        self._walks[rows, record, capture] = steps
        return steps

    def _logits(self, batch: np.ndarray, capture_probes: bool, record: bool):
        """(logits, ReLU capture blocks or None) of ``forward``, without the
        softmax. A recording pass runs as one block, and each layer keeps
        its backward state."""
        inputs = np.asarray(batch, dtype=np.float64)
        if inputs.shape[1:] != self.input_shape:
            raise ConfigError(
                f"batch shape {inputs.shape[1:]} does not match input shape {self.input_shape}"
            )
        b = len(inputs)
        if not b:
            raise ConfigError("a forward pass needs a non-empty batch")
        n_blocks = 1 if record else -(-b // self._block_rows)
        rows = -(-b // n_blocks)   # equal blocks; the last may be shorter
        logits = np.empty((b, self.n_classes))
        # sample-major: block rows [s0, s1) fill columns [s0 * h * w, s1 * h * w)
        captured = ([np.empty((shape[0], b, *shape[1:])) for shape in self._sites]
                    if capture_probes else None)
        head = self.layers[-1]
        steps = self._steps(rows, record, capture_probes)
        for s0 in range(0, b, rows):
            s1 = min(s0 + rows, b)
            if s1 - s0 < rows:
                steps = self._steps(s1 - s0, record, capture_probes)
            x = inputs[s0:s1]
            for layer, kwargs, in_place, site in steps:
                if in_place:
                    x = layer.forward(x, record, out=x)
                else:
                    x = layer.forward(x, record, **kwargs)
                if site is not None:
                    captured[site][:, s0:s1] = x.swapaxes(0, 1)
            head.forward(x, record, out=logits[s0:s1])
        if not np.isfinite(logits).all():
            idx = min(self._first_nonfinite_layer(inputs[s0:s0 + rows])
                      for s0 in range(0, b, rows))
            raise NumericError(
                f"non-finite activation at layer {idx} ({self.layers[idx].name})")
        if captured is not None:
            captured = [cap.reshape(len(cap), -1) for cap in captured]
        return logits, captured

    def _first_nonfinite_layer(self, x: np.ndarray) -> int:
        """Index of the first layer whose output on ``x`` is not finite."""
        for idx, layer in enumerate(self.layers):
            x = layer.forward(x, record=False)
            if not np.isfinite(x).all():
                return idx
        return len(self.layers) - 1


def build_model(arch_spec, seed: int = 0, input_shape: tuple[int, ...] | None = None) -> Model:
    """Build a model from an architecture description: a list of layer
    dicts (``LAYER_KEYS``), which needs ``input_shape``, or the shorthand
    ``"mlp:IN-H1-...-OUT"`` for a dense/ReLU chain. The shorthand expands
    into layer dicts, led by a flatten layer when ``input_shape`` is not
    flat, whose size must be ``IN``. Parameters are a pure function of
    (architecture, seed): ``np.random.default_rng(seed)`` draws the weights
    of each dense or conv layer in stack order (``layers``: He-normal)."""
    if isinstance(arch_spec, str):
        kind, _, body = arch_spec.partition(":")
        try:
            widths = [int(w) for w in body.replace(",", "-").split("-") if w]
        except ValueError:
            widths = []
        if kind != "mlp" or len(widths) < 2:
            raise ConfigError(f"arch {arch_spec!r} is not an 'mlp:IN-H1-...-OUT' shorthand "
                              "with two or more widths")
        input_shape = (widths[0],) if input_shape is None else input_shape
        if int(np.prod(input_shape)) != widths[0]:
            raise ConfigError(
                f"mlp input width {widths[0]} does not match input shape {input_shape}")
        arch_spec = [{"kind": "flatten"}] if len(input_shape) != 1 else []
        for width in widths[1:-1]:
            arch_spec += [{"kind": "dense", "out": width}, {"kind": "relu"}]
        arch_spec.append({"kind": "dense", "out": widths[-1]})
    elif not isinstance(arch_spec, (list, tuple)):
        raise ConfigError("arch must be an 'mlp:IN-H1-...-OUT' string or a list of layer "
                          f"dicts, got {arch_spec!r}")
    elif input_shape is None:
        raise ConfigError("input_shape is required for a structured architecture spec")
    return Model(arch_spec, input_shape, seed)


def _checked_labels(model: Model, batch, labels) -> np.ndarray:
    """``labels`` as an array, or ConfigError unless they are integers, one
    per row of ``batch``, in [0, n_classes): a float, missing or surplus
    label would otherwise index the logits wrongly or fail deep in numpy."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ConfigError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (len(batch),):
        raise ConfigError(
            f"labels of shape {labels.shape} for a batch of {len(batch)} rows; "
            "give one label per row"
        )
    if len(labels) and (labels.min() < 0 or labels.max() >= model.n_classes):
        raise ConfigError(
            f"labels must lie in [0, {model.n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def compute_gradients(model: Model, batch: np.ndarray, labels: np.ndarray) -> float:
    """Recording forward plus backward pass: fills every layer's ``grads``
    with the mean cross-entropy gradient and returns the loss. No parameter
    update. The loss and the logits' gradient come from one shift, exp and
    row sum (``softmax_cross_entropy``), bit for bit what ``cross_entropy``
    and ``softmax`` give. The layers before the first trainable one run no
    backward, and the first trainable one computes no input gradient."""
    labels = _checked_labels(model, batch, labels)
    logits, _ = model._logits(batch, False, record=True)
    loss, grad = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss; halting the run")
    # backprop ends at the first trainable layer: nothing reads its input gradient
    first = next(idx for idx, _, _ in model.trainable())
    for layer in reversed(model.layers[first + 1:]):
        grad = layer.backward(grad)
    model.layers[first].backward(grad, input_grad=False)
    return loss


def backward_and_step(model: Model, batch: np.ndarray, labels: np.ndarray, opt) -> float:
    """One optimizer step on a batch; returns the mean cross-entropy loss."""
    loss = compute_gradients(model, batch, labels)
    opt.step(model)
    return loss


def evaluate(model: Model, samples: np.ndarray, labels: np.ndarray,
             batch_size: int = 512, *, with_loss: bool = True) -> tuple[float | None, float]:
    """Mean loss and accuracy over a dataset; never mutates parameters.
    Runs the inference pass without the softmax, which neither reads. With
    ``with_loss=False`` no cross-entropy is computed and the loss is None;
    the accuracy is the same. ``batch_size`` must be an integer >= 1."""
    check_type("batch_size", batch_size, int)
    check_value("batch_size", batch_size, "[1, inf)")
    if len(samples) == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    labels = _checked_labels(model, samples, labels)
    losses = []
    correct = 0
    for start in range(0, len(samples), batch_size):
        xb = samples[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits, _ = model._logits(xb, False, record=False)
        if with_loss:
            losses.append(cross_entropy(logits, yb) * len(yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    loss = float(np.sum(losses) / len(samples)) if with_loss else None
    return loss, correct / len(samples)
