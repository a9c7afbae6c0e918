"""SGD and Adam with the conventional update rules.

The learning rate is a plain mutable attribute: rescaling it between
epochs is the only lever the training controller pulls.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class Optimizer:
    """Parameter updater for a Model; kind is "sgd" or "adam".

    SGD follows the momentum-buffer convention (buf = m*buf + g;
    p -= lr*buf) and Adam the bias-corrected moment estimates with
    defaults beta=(0.9, 0.999), eps=1e-8. Weight decay is plain L2
    added to the gradient. Moment buffers are allocated lazily, always
    match parameter shapes and are updated in place. So is one scratch
    array per parameter, which holds ``wd*p + g`` and the step, and Adam
    keeps one more for its other temporaries: no step allocates anything
    after the first. Each in-place product or quotient keeps the operands
    of the textbook expression, so the bits do not change.
    """

    def __init__(self, kind: str = "sgd", lr: float = 0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        if kind not in ("sgd", "adam"):
            raise ConfigError(f"optimizer kind must be 'sgd' or 'adam', got {kind!r}")
        if lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {lr}")
        self.kind = kind
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self._buffers: dict = {}
        self._scratch: dict = {}
        self._t = 0

    def step(self, model) -> None:
        self._t += 1
        for idx, params, grads in model.trainable():
            for name, p in params.items():
                g = grads[name]
                if g.shape != p.shape:
                    raise ConfigError(
                        f"gradient shape {g.shape} != parameter shape {p.shape} "
                        f"at layer {idx}/{name}"
                    )
                key = (idx, name)
                scratch = self._scratch.get(key)
                if scratch is None:
                    scratch = self._scratch[key] = np.empty_like(p)
                if self.weight_decay:
                    g = np.add(np.multiply(p, self.weight_decay, out=scratch), g, out=scratch)
                if self.kind == "sgd":
                    if self.momentum:
                        buf = self._buffers.get(key)
                        if buf is None:
                            buf = self._buffers[key] = np.zeros_like(p)
                        buf *= self.momentum
                        buf += g
                        g = buf
                    p -= np.multiply(g, self.lr, out=scratch)
                else:
                    if key not in self._buffers:
                        self._buffers[key] = (np.zeros_like(p), np.zeros_like(p),
                                              np.empty_like(p))
                    m, v, tmp = self._buffers[key]
                    b1, b2 = self.betas
                    m *= b1
                    m += np.multiply(g, 1.0 - b1, out=tmp)
                    v *= b2
                    v += np.multiply(np.multiply(g, 1.0 - b2, out=tmp), g, out=tmp)
                    # g is dead now, so scratch may take lr * m_hat
                    step = np.multiply(np.divide(m, 1.0 - b1 ** self._t, out=scratch),
                                       self.lr, out=scratch)
                    denom = np.sqrt(np.divide(v, 1.0 - b2 ** self._t, out=tmp), out=tmp)
                    denom += self.eps
                    p -= np.divide(step, denom, out=step)
