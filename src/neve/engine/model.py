"""Model assembly, probed forward passes, training steps and evaluation.

A model is an ordered stack of layers ending in a dense classification
head whose logits feed a softmax cross-entropy loss. A probed forward
pass captures the output of every ReLU, in stack order, and then the
head's softmax output; a probed "neuron" is one output unit of a flat
activation or one channel of a (b, c, h, w) activation (spatial
positions are folded into the sample axis).

The model owns one flat workspace array, ``Model._workspace``, grown to
the largest pass seen. A pass (the inference pass of ``Model.forward``,
``evaluate`` and probe snapshots; the recording pass of
``compute_gradients``) lays a block of ``rows`` rows out in it: the convs'
im2col ``cols``, then each hidden dense or conv layer's output in stack
order. A recording pass is one block and packs every conv's ``cols``, as
backward reads them all. An inference pass runs in blocks of at most
``Model._block_rows`` rows, the most whose widest ``cols`` and hidden
outputs fit in ``INFERENCE_BYTES``, and starts every conv's ``cols`` at
offset 0, dead once its GEMM has run; so its workspace grows neither with
the batch nor with ``evaluate``'s ``EVAL_ROWS`` groups. ``release_buffers``
frees it. A ReLU works in place only on an activation the same pass produced.

The trainable state is two flat vectors, ``Model.params`` (every weight
and bias, in stack order) and ``Model.grads``, which the layers' ``params``
and ``grads`` view (``layers.pack``): weights are written into, never rebound.

The loss head computes what a caller reads and nothing twice: a training
step takes its loss and gradient from one softmax pass, ``evaluate``
skips the softmax, and an accuracy-only ``evaluate`` skips the loss. No
GEMM changes shape or batching for it, so every number keeps its bits.
Both check their labels with ``errors.check_labels``, as a ``Dataset`` does.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, NumericError, check_labels, check_type
from .layers import (Conv2d, Dense, Flatten, ReLU, cross_entropy, pack, softmax,
                     softmax_cross_entropy)

# workspace bytes an inference pass may hold per block of rows. Smaller
# blocks fit a cache better, but each pays the layers' fixed per-call cost
# (im2col alone makes ~45 numpy calls per conv); 4 MiB was the fastest of
# 0.5, 1, 1.5, 2 and 4 MiB on the benchmark's conv net (2 MiB L2 per core)
INFERENCE_BYTES = 2 ** 22

# rows per ``evaluate`` group; the row blocks bound its memory, but the
# loss is summed group by group, so the group size fixes the loss's bits
EVAL_ROWS = 512


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
    checks for a dense head, counts probed rows in ``n_probed_neurons`` and
    packs ``params`` and ``grads``. The same walk plans every pass: where
    each layer's ``cols`` and output lie in ``_workspace``, whether a ReLU
    may work in place and which capture slot it fills, and the inference
    block size ``_block_rows``."""

    def __init__(self, descs: list, input_shape: tuple[int, ...], seed: int):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = []
        shape = self.input_shape
        rng = np.random.default_rng(int(seed))
        # one step per layer: (layer, cols and output values per sample, 0
        # unless dense or conv, ReLU in place, capture slot or None)
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
            n_cols, n_out, site = 0, 0, None
            if isinstance(layer, ReLU):
                site = len(self._sites)
                self._sites.append(shape)
            elif isinstance(layer, (Dense, Conv2d)):
                n_out = math.prod(shape)
                if isinstance(layer, Conv2d):
                    n_cols = layer.in_channels * layer.kernel ** 2 * shape[1] * shape[2]
            self._plan.append((layer, n_cols, n_out, owned and site is not None, site))
            owned = owned or not isinstance(layer, Flatten)
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ConfigError("architecture must end in a dense classification head")
        del self._plan[-1]   # the head writes the pass's fresh logits
        n_cols = [step[1] for step in self._plan]
        self._cols_packed, self._cols_widest = sum(n_cols), max(n_cols, default=0)
        self._n_outputs = sum(step[2] for step in self._plan)
        per_row = self._cols_widest + self._n_outputs
        self._block_rows = max(1, INFERENCE_BYTES // (8 * max(per_row, 1)))
        self.n_classes = shape[0]
        self.n_probed_neurons = sum(site[0] for site in self._sites) + self.n_classes
        self._workspace = np.empty(0)
        self._walks: dict = {}     # (rows, record, capture) -> ``_steps`` over the workspace
        self.params, self.grads = pack(self.layers)

    def release_buffers(self) -> None:
        """Free the workspace; the next pass makes a new one."""
        self._workspace = np.empty(0)
        self._walks.clear()

    def forward(self, batch: np.ndarray, capture_probes: bool = False):
        """Inference pass over ``batch``: no layer keeps backward state.

        Returns (logits, probabilities, capture): ``capture`` is None unless
        requested, else a tuple of (neurons, vector_len) blocks, one per
        capture site in stack order. The stack runs once per block of at
        most ``_block_rows`` rows (equal blocks, the last one possibly
        shorter). Only the logits are scanned for non-finite values: NaN and
        +-inf reach them through every layer (a ReLU turns -inf into NaN).
        When the scan fails, each block is run again with a check after each
        layer, and the NumericError names the first layer whose output is not
        finite in any block, as a scan of the whole batch would, since rows
        are independent. A value that never reaches the logits (say, in a
        border row a strided conv skips) cannot change the loss or the
        gradients and is not reported. The returned arrays are fresh. An
        empty batch, or one whose sample shape is not ``input_shape``,
        raises ConfigError.
        """
        logits, captured = self._logits(batch, capture_probes, record=False)
        probs = softmax(logits)
        if captured is None:
            return logits, probs, None
        return logits, probs, (*captured, probs.T.copy())

    def _steps(self, rows: int, record: bool, capture: bool) -> list:
        """The walk for a block of ``rows`` rows: per layer before the head,
        (layer, its workspace arguments, ReLU in place, capture slot or
        None), viewing ``_workspace``. Kept until a larger need replaces the
        array or it is released."""
        steps = self._walks.get((rows, record, capture))
        if steps is not None:
            return steps
        start, end = 0, rows * (self._cols_packed if record else self._cols_widest)
        if self._workspace.size < end + rows * self._n_outputs:
            self._walks.clear()
            self._workspace = np.empty(end + rows * self._n_outputs)
        steps = []
        for layer, n_cols, n_out, in_place, site in self._plan:
            kwargs = {}
            if n_out:
                kwargs = {"cols": self._workspace[start:start + n_cols * rows],
                          "out": self._workspace[end:end + n_out * rows].reshape(rows, n_out)}
                start += n_cols * rows if record else 0
                end += n_out * rows
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


def compute_gradients(model: Model, batch: np.ndarray, labels: np.ndarray) -> float:
    """Recording forward plus backward pass: writes the mean cross-entropy
    gradient into ``model.grads`` and returns the loss; no update. Loss and
    gradient come from one shift, exp and row sum (``softmax_cross_entropy``),
    bit for bit what ``cross_entropy`` and ``softmax`` give. Backprop ends at
    the first trainable layer, which computes no input gradient."""
    labels = check_labels(labels, len(batch), model.n_classes)
    logits, _ = model._logits(batch, False, record=True)
    loss, grad = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss; halting the run")
    first = next(idx for idx, layer in enumerate(model.layers) if layer.params)
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
             *, with_loss: bool = True) -> tuple[float | None, float]:
    """Mean loss and accuracy over a dataset, in groups of ``EVAL_ROWS``
    rows; never mutates parameters. Runs the inference pass without the
    softmax, which neither reads. With ``with_loss=False`` no cross-entropy
    is computed and the loss is None; the accuracy is the same."""
    if len(samples) == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    labels = check_labels(labels, len(samples), model.n_classes)
    losses = []
    correct = 0
    for start in range(0, len(samples), EVAL_ROWS):
        xb = samples[start:start + EVAL_ROWS]
        yb = labels[start:start + EVAL_ROWS]
        logits, _ = model._logits(xb, False, record=False)
        if with_loss:
            losses.append(cross_entropy(logits, yb) * len(yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    loss = float(np.sum(losses) / len(samples)) if with_loss else None
    return loss, correct / len(samples)
