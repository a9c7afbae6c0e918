"""Feedforward layers with hand-derived backward passes.

Every layer works on float64 numpy arrays. ``forward`` keeps what the
matching ``backward`` needs, or, given ``record=False``, keeps nothing.
``backward`` reads that state (NeveError when there is none), fills
``grads`` for trainable layers and returns the gradient w.r.t. the layer
input; a trainable layer given ``input_grad=False`` skips that gradient
and returns None. Single-threaded use: one recording forward, then at
most one backward.

``Dense.forward`` and ``ReLU.forward`` take an ``out`` array to write
into (the model's reused inference buffers, or the ReLU's own input);
without it they return a fresh array and never write to their input.
``ReLU.backward`` multiplies into a 2-D gradient it is given and returns it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NeveError


class _Layer:
    """Backward state kept by one forward; defaults of a parameter-free layer."""

    params: dict = {}
    grads: dict = {}
    _saved = None

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def _recorded(self):
        if self._saved is None:
            raise NeveError(f"{self.name}: backward needs a forward with record=True first")
        return self._saved


class Dense(_Layer):
    """Affine map ``y = x @ W + b`` on flat inputs of shape (batch, in)."""

    def __init__(self, in_features: int, out_features: int):
        if in_features < 1 or out_features < 1:
            raise ConfigError(
                f"dense layer needs positive sizes, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.params = {"W": np.zeros((in_features, out_features)), "b": np.zeros(out_features)}
        self.grads = {}

    @property
    def name(self) -> str:
        return f"dense({self.in_features}->{self.out_features})"

    def init_params(self, rng: np.random.Generator) -> None:
        # He-normal fan-in scaling, the usual choice ahead of ReLU.
        std = np.sqrt(2.0 / self.in_features)
        self.params["W"] = rng.normal(0.0, std, size=(self.in_features, self.out_features))
        self.params["b"] = np.zeros(self.out_features)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1 or input_shape[0] != self.in_features:
            hint = "; insert a flatten layer" if len(input_shape) != 1 else ""
            raise ConfigError(f"{self.name} expects flat input of width {self.in_features}, "
                              f"got shape {input_shape}{hint}")
        return (self.out_features,)

    def forward(self, x: np.ndarray, record: bool = True,
                out: np.ndarray | None = None) -> np.ndarray:
        self._saved = x if record else None
        out = np.matmul(x, self.params["W"], out=out)
        out += self.params["b"]
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        self.grads["W"] = self._recorded().T @ grad
        self.grads["b"] = grad.sum(axis=0)
        return grad @ self.params["W"].T if input_grad else None


class Conv2d(_Layer):
    """2-D convolution on (batch, channels, height, width) inputs.

    Activations live in channel-major, batch-last (c, h, w, b) buffers;
    outputs and input gradients are returned as (b, c, h, w) views of
    them, so the public shapes do not change. Elementwise layers keep that
    memory layout, so ``x.transpose(1, 2, 3, 0)`` of the next conv's input
    is contiguous again. im2col lays the input patches out as a
    (c*k*k, oh*ow*b) matrix whose rows follow the (c, ki, kj) order of the
    flattened kernel and whose columns run over (output row, output
    column, sample); each of its k*k slice copies moves contiguous runs of
    b samples. Each pass is then one 2-D GEMM: forward
    ``W (f, c*k*k) @ cols``; backward ``g @ cols.T`` for the weights and
    ``W.T @ g`` for the input, with ``g`` the output gradient as
    (f, oh*ow*b).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, pad: int = 0):
        if min(in_channels, out_channels, kernel, stride) < 1 or pad < 0:
            raise ConfigError(
                f"conv layer needs positive channels/kernel/stride and pad >= 0, got "
                f"in={in_channels} out={out_channels} k={kernel} stride={stride} pad={pad}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.params = {
            "W": np.zeros((out_channels, in_channels, kernel, kernel)),
            "b": np.zeros(out_channels),
        }
        self.grads = {}

    @property
    def name(self) -> str:
        return f"conv({self.in_channels}->{self.out_channels},k{self.kernel})"

    def init_params(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel * self.kernel
        std = np.sqrt(2.0 / fan_in)
        self.params["W"] = rng.normal(0.0, std, size=self.params["W"].shape)
        self.params["b"] = np.zeros(self.out_channels)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ConfigError(
                f"{self.name} expects (channels={self.in_channels}, h, w) input, "
                f"got shape {input_shape}"
            )
        _, h, w = input_shape
        oh = (h + 2 * self.pad - self.kernel) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ConfigError(f"{self.name} kernel does not fit input {input_shape}")
        return (self.out_channels, oh, ow)

    def _im2col(self, x: np.ndarray, oh: int, ow: int) -> np.ndarray:
        b, c = x.shape[:2]
        k, s, p = self.kernel, self.stride, self.pad
        xp = np.pad(x.transpose(1, 2, 3, 0), ((0, 0), (p, p), (p, p), (0, 0)))
        cols = np.empty((c, k, k, oh, ow, b))
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xp[:, i:i + s * oh:s, j:j + s * ow:s]
        return cols.reshape(c * k * k, oh * ow * b)

    def _col2im(self, cols: np.ndarray, x_shape: tuple, oh: int, ow: int) -> np.ndarray:
        b, c, h, w = x_shape
        k, s, p = self.kernel, self.stride, self.pad
        cols = cols.reshape(c, k, k, oh, ow, b)
        xp = np.zeros((c, h + 2 * p, w + 2 * p, b))
        for i in range(k):
            for j in range(k):
                xp[:, i:i + s * oh:s, j:j + s * ow:s] += cols[:, i, j]
        return xp[:, p:p + h, p:p + w].transpose(3, 0, 1, 2)

    def forward(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        b = x.shape[0]
        _, oh, ow = self.output_shape(x.shape[1:])
        cols = self._im2col(x, oh, ow)
        out = self.params["W"].reshape(self.out_channels, -1) @ cols
        out += self.params["b"][:, None]
        self._saved = (x.shape, oh, ow, cols) if record else None
        return out.reshape(self.out_channels, oh, ow, b).transpose(3, 0, 1, 2)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x_shape, oh, ow, cols = self._recorded()
        g = grad.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        self.grads["W"] = (g @ cols.T).reshape(self.params["W"].shape)
        self.grads["b"] = g.sum(axis=1)
        if not input_grad:
            return None
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        return self._col2im(w_mat.T @ g, x_shape, oh, ow)


class ReLU(_Layer):
    """Elementwise ``max(0, x)``; a probe point in every architecture."""

    name = "relu"

    def forward(self, x: np.ndarray, record: bool = True,
                out: np.ndarray | None = None) -> np.ndarray:
        if x.min() == -np.inf:   # -inf * 0 = NaN keeps it visible to the logits scan
            out = x * (x > 0)
        else:
            out = np.maximum(x, 0.0, out=out)
        self._saved = out if record else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # a 4-D gradient from a conv is a strided view; a product there would cost a copy later
        return np.multiply(grad, self._recorded() > 0, out=grad if grad.ndim == 2 else None)


class Flatten(_Layer):
    """Collapse all non-batch axes into one."""

    name = "flatten"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        self._saved = x.shape if record else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._recorded()
        if len(shape) != 4:
            return grad.reshape(shape)
        # the conv stack's batch-last layout: (c, h, w, b) viewed as (b, c, h, w)
        return np.ascontiguousarray(grad.T).reshape(*shape[1:], shape[0]).transpose(3, 0, 1, 2)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for overflow safety."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under softmax(logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))
