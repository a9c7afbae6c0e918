"""SGD and Adam with the conventional update rules.

The learning rate is a plain mutable attribute: rescaling it between
epochs is the only lever the training controller pulls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NeveError, check_fields, within

# Adam's moment decay rates and denominator offset, the conventional constants
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerSpec:
    """SGD or Adam settings; Adam runs with ``ADAM_BETAS`` and ``ADAM_EPS``."""

    kind: str = within("sgd", ("sgd", "adam"))
    lr: float = within(0.1, "[0, inf)")
    momentum: float = within(0.9, "[0, 1)")
    weight_decay: float = within(1e-4, "[0, inf)")

    def __post_init__(self):
        check_fields(self, "optimizer.")


class Optimizer:
    """Parameter updater for a Model, set up by an ``OptimizerSpec``
    (kind "sgd" or "adam"), which checked its values when it was built.

    SGD follows the momentum-buffer convention (buf = m*buf + g;
    p -= lr*buf) and Adam the bias-corrected moment estimates with
    ``ADAM_BETAS`` and ``ADAM_EPS``. Weight decay is plain L2 added to the
    gradient. A step is one fixed sequence of vector operations on the
    model's flat ``params`` and ``grads``. The first checks that ``grads``
    holds a gradient (a model's starts as NaN) and allocates the slots that
    later steps update in place, each the size of ``params``: a scratch
    vector for ``wd*p + g`` and the step, then the momentum buffer (SGD) or
    ``m``, ``v`` and a temporary (Adam); a step on a model of another size
    raises. Each in-place product or quotient keeps the operands of the
    textbook expression, so the bits do not change.
    """

    def __init__(self, spec: OptimizerSpec = OptimizerSpec()):
        self.kind, self.momentum, self.weight_decay = spec.kind, spec.momentum, spec.weight_decay
        self.lr = spec.lr
        self._slots: list = []   # [scratch, *buffers], allocated by the first step
        self._t = 0

    def step(self, model) -> None:
        p, g = model.params, model.grads
        if not self._t:
            if np.isnan(g).any():
                raise NeveError(f"parameter {np.isnan(g).argmax()} has no gradient; call "
                                "compute_gradients before Optimizer.step")
            n_buffers = 3 if self.kind == "adam" else (1 if self.momentum else 0)
            self._slots = [np.empty_like(p), *(np.zeros_like(p) for _ in range(n_buffers))]
        elif p.size != self._slots[0].size:
            raise NeveError(f"this optimizer steps {self._slots[0].size} parameters, not {p.size}")
        self._t += 1
        scratch, *buffers = self._slots
        if self.weight_decay:
            g = np.add(np.multiply(p, self.weight_decay, out=scratch), g, out=scratch)
        if self.kind == "sgd":
            if self.momentum:
                (buf,) = buffers
                buf *= self.momentum
                buf += g
                g = buf
            p -= np.multiply(g, self.lr, out=scratch)
        else:
            m, v, tmp = buffers
            b1, b2 = ADAM_BETAS
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=tmp), g, out=tmp)
            # g is dead now, so scratch may take lr * m_hat
            step = np.multiply(np.divide(m, 1.0 - b1 ** self._t, out=scratch),
                               self.lr, out=scratch)
            denom = np.sqrt(np.divide(v, 1.0 - b2 ** self._t, out=tmp), out=tmp)
            denom += ADAM_EPS
            p -= np.divide(step, denom, out=step)
