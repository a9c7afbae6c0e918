"""Feedforward layers with hand-derived backward passes.

Every layer works on float64 numpy arrays. ``forward`` keeps what the
matching ``backward`` needs, or, given ``record=False``, keeps nothing.
``backward`` reads that state (NeveError when there is none), writes
``grads`` for trainable layers and returns the gradient w.r.t. the layer
input, or None when a trainable layer is given ``input_grad=False``.
Single-threaded use: one recording forward, then at most one backward.

``Dense.forward`` and ``Conv2d.forward`` take exact-size ``cols`` and
``out`` arrays from the model's workspace (a dense layer ignores
``cols``), ``ReLU.forward`` an ``out`` array, its own input; without them
each makes fresh arrays and never writes to its input, and a recording
forward keeps what it is given. ``ReLU.backward`` multiplies into the
gradient it is given; ``Conv2d.backward`` writes its input gradient's
``cols`` over its recorded ones, then keeps no state.

``Dense`` and ``Conv2d`` draw He-normal weights (std ``sqrt(2 / fan_in)``,
the usual choice ahead of ReLU) from their ``rng`` and zero biases. Their
``params`` and ``grads`` are read-only mappings of views of two flat
vectors (``pack``), the layer's own until a ``Model`` packs it: write into
a weight (``params["W"][...] = w``), never rebind it.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from ..errors import ConfigError, NeveError


class _Layer:
    """Backward state kept by one forward; defaults of a parameter-free layer."""

    params = grads = MappingProxyType({})
    _saved = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def _recorded(self):
        if self._saved is None:
            raise NeveError(f"{self.name}: backward needs a forward with record=True first")
        return self._saved


def pack(layers) -> tuple[np.ndarray, np.ndarray]:
    """(params, grads): the layers' parameters copied, in order, into one flat
    vector, and a gradient vector of its size, NaN until a backward writes
    it. Each layer's ``params`` and ``grads`` become read-only views of them."""
    params = np.concatenate([p.ravel() for layer in layers for p in layer.params.values()])
    grads, start = np.full(params.size, np.nan), 0
    for layer in layers:
        views = ({}, {})
        for name, p in layer.params.items():
            views[0][name] = params[start:start + p.size].reshape(p.shape)
            views[1][name] = grads[start:start + p.size].reshape(p.shape)
            start += p.size
        layer.params, layer.grads = map(MappingProxyType, views)
    return params, grads


class Dense(_Layer):
    """Affine map ``y = x @ W + b`` on flat inputs of shape (batch, in); ``W``
    (in, out) is drawn from ``rng`` with std ``sqrt(2 / in)``."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        if in_features < 1 or out_features < 1:
            raise ConfigError(
                f"dense layer needs positive sizes, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        std = np.sqrt(2.0 / in_features)
        self.params = {"W": rng.normal(0.0, std, size=(in_features, out_features)),
                       "b": np.zeros(out_features)}
        pack([self])

    @property
    def name(self) -> str:
        return f"dense({self.in_features}->{self.out_features})"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1 or input_shape[0] != self.in_features:
            hint = "; insert a flatten layer" if len(input_shape) != 1 else ""
            raise ConfigError(f"{self.name} expects flat input of width {self.in_features}, "
                              f"got shape {input_shape}{hint}")
        return (self.out_features,)

    def forward(self, x: np.ndarray, record: bool = True, cols: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        self._saved = x if record else None
        out = np.matmul(x, self.params["W"], out=out)
        out += self.params["b"]
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        np.matmul(self._recorded().T, grad, out=self.grads["W"])
        grad.sum(axis=0, out=self.grads["b"])
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
    column, sample); each of its k*k taps copies the in-range window of
    the unpadded input in contiguous runs of b samples and zeroes only
    the border strips that fall in the padding. col2im adds the taps back
    in the same order into an unpadded (c, h, w, b) buffer. Each pass is
    then one 2-D GEMM: forward ``W (f, c*k*k) @ cols``; backward
    ``g @ cols.T`` for the weights and ``W.T @ g`` for the input, with
    ``g`` the output gradient as (f, oh*ow*b). ``W`` (f, c, k, k) is drawn
    from ``rng`` with std ``sqrt(2 / (c*k*k))``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, pad: int = 0, *, rng: np.random.Generator):
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
        std = np.sqrt(2.0 / (in_channels * kernel * kernel))
        self.params = {"W": rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel)),
                       "b": np.zeros(out_channels)}
        pack([self])

    @property
    def name(self) -> str:
        return f"conv({self.in_channels}->{self.out_channels},k{self.kernel})"

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

    def _im2col(self, x: np.ndarray, oh: int, ow: int,
                cols: np.ndarray | None = None) -> np.ndarray:
        b, c, h, w = x.shape
        k, s = self.kernel, self.stride
        xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
        if cols is None:
            cols = np.empty(c * k * k * oh * ow * b)
        taps = cols.reshape(c, k, k, oh, ow, b)
        for i in range(k):
            r0, r1, ri = _tap_span(i - self.pad, s, oh, h)
            for j in range(k):
                q0, q1, qj = _tap_span(j - self.pad, s, ow, w)
                tap = taps[:, i, j]
                tap[:, :r0] = 0.0
                tap[:, r1:] = 0.0
                tap[:, r0:r1, :q0] = 0.0
                tap[:, r0:r1, q1:] = 0.0
                tap[:, r0:r1, q0:q1] = xt[:, ri:ri + s * (r1 - r0):s, qj:qj + s * (q1 - q0):s]
        return taps.reshape(c * k * k, oh * ow * b)

    def _col2im(self, cols: np.ndarray, x_shape: tuple, oh: int, ow: int) -> np.ndarray:
        b, c, h, w = x_shape
        k, s = self.kernel, self.stride
        taps = cols.reshape(c, k, k, oh, ow, b)
        xg = np.zeros((c, h, w, b))
        for i in range(k):
            r0, r1, ri = _tap_span(i - self.pad, s, oh, h)
            for j in range(k):
                q0, q1, qj = _tap_span(j - self.pad, s, ow, w)
                xg[:, ri:ri + s * (r1 - r0):s, qj:qj + s * (q1 - q0):s] += taps[:, i, j, r0:r1, q0:q1]
        return xg.transpose(3, 0, 1, 2)

    def forward(self, x: np.ndarray, record: bool = True, cols: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        b = x.shape[0]
        _, oh, ow = self.output_shape(x.shape[1:])
        cols = self._im2col(x, oh, ow, cols)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        if out is not None:
            out = out.reshape(self.out_channels, -1)
        out = np.matmul(w_mat, cols, out=out)
        out += self.params["b"][:, None]
        self._saved = (x.shape, oh, ow, cols) if record else None
        return out.reshape(self.out_channels, oh, ow, b).transpose(3, 0, 1, 2)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x_shape, oh, ow, cols = self._recorded()
        g = grad.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        np.matmul(g, cols.T, out=self.grads["W"].reshape(self.out_channels, -1))
        g.sum(axis=1, out=self.grads["b"])
        if not input_grad:
            return None
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        # the weight gradient was the last reader of cols: its input gradient goes
        # there, so a second backward would read garbage and must raise instead
        self._saved = None
        return self._col2im(np.matmul(w_mat.T, g, out=cols), x_shape, oh, ow)


def _tap_span(offset: int, stride: int, n_out: int, n_in: int) -> tuple[int, int, int]:
    """(lo, hi, start): the output positions [lo, hi) whose input index
    ``offset + stride * o`` lies inside [0, n_in), and the input index of ``lo``."""
    lo = min(n_out, max(0, -(offset // stride)))
    hi = max(lo, min(n_out, (n_in - 1 - offset) // stride + 1))
    return lo, hi, offset + stride * lo


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
        # every gradient reaching a ReLU was made by the backward pass, and a
        # 4-D one is a (b, c, h, w) view of a batch-last buffer, as is the
        # recorded output: in place keeps that layout for the conv below
        return np.multiply(grad, self._recorded() > 0, out=grad)


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


def _row_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=1)``, taken down the columns of a (classes, batch)
    copy, since numpy reduces a short last axis slowly. A max is exact; only
    a zero maximum's sign may differ, which no shift by it can show."""
    return np.ascontiguousarray(logits.T).max(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row maximum for overflow safety."""
    z = logits - _row_max(logits)[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under softmax(logits), from
    the same shift, exp and row sum as ``softmax``."""
    z = logits - _row_max(logits)[:, None]
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """``cross_entropy(logits, labels)`` and its gradient w.r.t. ``logits``,
    ``(softmax(logits) - onehot(labels)) / batch``, from one shift, one exp
    and one row sum. Each value comes from the same operations on the same
    operands as in those two functions, so both are bit for bit theirs;
    ``logits`` is read, never written."""
    rows = np.arange(len(labels))
    z = logits - _row_max(logits)[:, None]
    picked = z[rows, labels]
    e = np.exp(z, out=z)
    norm = e.sum(axis=1)
    loss = float(np.mean(np.log(norm) - picked))
    e /= norm[:, None]
    e[rows, labels] -= 1.0
    e /= len(labels)
    return loss, e
