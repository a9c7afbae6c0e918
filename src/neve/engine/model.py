"""Model assembly, probed forward passes, training steps and evaluation.

A model is an ordered stack of layers ending in a dense classification
head whose logits feed a softmax cross-entropy loss. A probed forward
pass captures the output of every ReLU, in stack order, and then the
head's softmax output; a probed "neuron" is one output unit of a flat
activation or one channel of a (b, c, h, w) activation (spatial
positions are folded into the sample axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericError
from .layers import Conv2d, Dense, Flatten, ReLU, cross_entropy, softmax


@dataclass(frozen=True)
class ProbeCapture:
    """Post-activation outputs for every probed neuron over one batch.

    ``outputs[k]`` has shape (neurons, vector_len) for the k-th capture
    site (each ReLU in stack order, then the softmax head); the order is
    stable across epochs for a fixed architecture and batch size.
    """

    outputs: tuple[np.ndarray, ...]


def _capture_site(act: np.ndarray) -> np.ndarray:
    if act.ndim == 4:
        b, c = act.shape[0], act.shape[1]
        # (b, c, h, w) -> (c, b*h*w): spatial positions join the sample axis
        return act.reshape(b, c, -1).transpose(1, 0, 2).reshape(c, -1).copy()
    return act.T.copy()


class Model:
    """Layer stack with deterministic parameters. ``n_probed_neurons``
    counts the rows a probed forward pass captures."""

    def __init__(self, layers: list, input_shape: tuple[int, ...], seed: int):
        self.layers = layers
        self.input_shape = tuple(int(d) for d in input_shape)
        self.seed = int(seed)

        shape = self.input_shape
        relu_neurons = 0
        for idx, layer in enumerate(self.layers):
            try:
                shape = layer.output_shape(shape)
            except ConfigError as exc:
                prev = self.layers[idx - 1].name if idx else "input"
                raise ConfigError(f"layer {idx} ({layer.name}) after {prev}: {exc}") from exc
            if isinstance(layer, ReLU):
                relu_neurons += shape[0]
        if not isinstance(self.layers[-1], Dense):
            raise ConfigError("architecture must end in a dense classification head")
        if len(shape) != 1:
            raise ConfigError(f"head output must be flat, got shape {shape}")
        self.n_classes = shape[0]
        self.n_probed_neurons = relu_neurons + self.n_classes

        rng = np.random.default_rng(self.seed)
        for layer in self.layers:
            layer.init_params(rng)

    def n_parameters(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params.values())

    def trainable(self):
        """Yield (key, params, grads) per trainable layer, in stack order."""
        for idx, layer in enumerate(self.layers):
            if layer.params:
                yield idx, layer.params, layer.grads

    def forward(self, batch: np.ndarray, capture_probes: bool = False):
        """Inference pass over ``batch``: no layer keeps backward state.

        Returns (logits, probabilities, capture) where ``capture`` is a
        ProbeCapture when requested and None otherwise. Only the logits
        are scanned for non-finite values: NaN and +-inf reach them through
        every layer (a ReLU turns -inf into NaN). When the scan fails, the
        stack is run again with a check after each layer, and the
        NumericError names the first layer whose output is not finite. A
        value that never reaches the logits (say, in a border row a strided
        conv skips) cannot change the loss or the gradients and is not
        reported.
        """
        return self._pass(batch, capture_probes, record=False)

    def _pass(self, batch: np.ndarray, capture_probes: bool, record: bool):
        """``forward``; each layer keeps its backward state when ``record``."""
        x = inputs = np.asarray(batch, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ConfigError(
                f"batch shape {x.shape[1:]} does not match input shape {self.input_shape}"
            )
        captured = [] if capture_probes else None
        for layer in self.layers:
            x = layer.forward(x, record=record)
            if captured is not None and isinstance(layer, ReLU):
                captured.append(_capture_site(x))
        logits = x
        if not np.isfinite(logits).all():
            idx = self._first_nonfinite_layer(inputs)
            raise NumericError(
                f"non-finite activation at layer {idx} ({self.layers[idx].name})")
        probs = softmax(logits)
        if captured is not None:
            captured.append(_capture_site(probs))
            return logits, probs, ProbeCapture(tuple(captured))
        return logits, probs, None

    def _first_nonfinite_layer(self, x: np.ndarray) -> int:
        """Index of the first layer whose output on ``x`` is not finite."""
        for idx, layer in enumerate(self.layers):
            x = layer.forward(x, record=False)
            if not np.isfinite(x).all():
                return idx
        return len(self.layers) - 1


def _parse_mlp_spec(spec: str) -> tuple[list, tuple[int, ...]]:
    body = spec.split(":", 1)[1]
    try:
        widths = [int(w) for w in body.replace(",", "-").split("-") if w]
    except ValueError:
        raise ConfigError(f"cannot parse mlp widths from {spec!r}") from None
    if len(widths) < 2:
        raise ConfigError(f"mlp spec needs at least input and output widths: {spec!r}")
    layers: list = []
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(Dense(a, b))
        if i < len(widths) - 2:
            layers.append(ReLU())
    return layers, (widths[0],)


def _layers_from_dicts(descs: list[dict], input_shape: tuple[int, ...]) -> list:
    layers: list = []
    shape = tuple(input_shape)
    for i, desc in enumerate(descs):
        kind = desc.get("kind")
        if kind == "dense":
            if len(shape) != 1:
                raise ConfigError(
                    f"layer {i}: dense after non-flat shape {shape}; insert a flatten layer"
                )
            layers.append(Dense(shape[0], int(desc["out"])))
        elif kind == "conv":
            if len(shape) != 3:
                raise ConfigError(f"layer {i}: conv needs (c, h, w) input, has {shape}")
            layers.append(Conv2d(shape[0], int(desc["out_channels"]), int(desc["kernel"]),
                                 int(desc.get("stride", 1)), int(desc.get("pad", 0))))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "flatten":
            layers.append(Flatten())
        else:
            raise ConfigError(f"layer {i}: unknown layer kind {kind!r}")
        shape = layers[-1].output_shape(shape)
    return layers


def build_model(arch_spec, seed: int = 0, input_shape: tuple[int, ...] | None = None) -> Model:
    """Build a model from an architecture description.

    ``arch_spec`` is either the string shorthand ``"mlp:IN-H1-...-OUT"``
    (dense/ReLU chain, all widths listed) or a list of layer dicts
    ({"kind": "dense"|"conv"|"relu"|"flatten", ...}), in which case
    ``input_shape`` is required. Parameters are a pure function of
    (architecture, seed).
    """
    if isinstance(arch_spec, str):
        if not arch_spec.startswith("mlp:"):
            raise ConfigError(f"unknown architecture shorthand {arch_spec!r}")
        layers, inferred = _parse_mlp_spec(arch_spec)
        if input_shape is not None and tuple(input_shape) != inferred:
            if int(np.prod(input_shape)) != inferred[0]:
                raise ConfigError(
                    f"mlp input width {inferred[0]} does not match input shape {input_shape}"
                )
            layers.insert(0, Flatten())
            inferred = tuple(input_shape)
        return Model(layers, inferred, seed)
    if input_shape is None:
        raise ConfigError("input_shape is required for a structured architecture spec")
    return Model(_layers_from_dicts(list(arch_spec), tuple(input_shape)), tuple(input_shape), seed)


def compute_gradients(model: Model, batch: np.ndarray, labels: np.ndarray) -> float:
    """Recording forward plus backward pass: fills every layer's ``grads``
    with the mean cross-entropy gradient and returns the loss. No parameter
    update. The layers before the first trainable one run no backward, and
    the first trainable one computes no input gradient."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ConfigError(
            f"labels must lie in [0, {model.n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    logits, probs, _ = model._pass(batch, False, record=True)
    loss = cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss; halting the run")
    n = len(labels)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
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
             batch_size: int = 512) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset; never mutates parameters."""
    if len(samples) == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    labels = np.asarray(labels)
    losses = []
    correct = 0
    for start in range(0, len(samples), batch_size):
        xb = samples[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits, _, _ = model.forward(xb)
        losses.append(cross_entropy(logits, yb) * len(yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    return float(np.sum(losses) / len(samples)), correct / len(samples)
