"""Per-neuron change rates and velocities from activation probes.

Each probed neuron's output vector over the frozen auxiliary set is
unit-normalized; the change rate between consecutive epochs is the inner
product of those unit vectors (a cosine similarity in [-1, 1], 1 meaning
the neuron's input-to-output function did not move). The velocity

    v_t = |(1 - rho_t) - MU * v_{t-1}|,   v_0 = 0,   MU = 0.5

smooths the complementary change 1 - rho, and the model velocity is the
arithmetic mean of all probed neurons' velocities. Everything here is
pure-functional: snapshots and states are immutable once produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ZERO_NORM_EPS = 1e-12
# v <- |(1 - rho) - MU * v| must decay while rho = 1, or epsilon never stops a run
MU = 0.5


@dataclass(frozen=True)
class ActivationSnapshot:
    """Normalized per-neuron outputs over the auxiliary set at one epoch.

    ``units[k]`` holds unit-norm rows (or zero rows where flagged) of
    shape (neurons, vector_len) for capture site k; ``zero_flags[k]``
    marks neurons whose raw output vector had near-zero norm.
    """

    epoch: int
    units: tuple[np.ndarray, ...]
    zero_flags: tuple[np.ndarray, ...]


def normalize_capture(raw: tuple[np.ndarray, ...], epoch: int) -> ActivationSnapshot:
    """Unit-normalize each neuron's row of a capture's (neurons, vector_len)
    blocks; near-zero rows are zero-flagged and divided by inf, not by ~0."""
    units = []
    flags = []
    for block in raw:
        norms = np.linalg.norm(block, axis=1)
        dead = norms < ZERO_NORM_EPS
        units.append(block / np.where(dead, np.inf, norms)[:, None])   # a dead row: +-0
        flags.append(dead)
    return ActivationSnapshot(int(epoch), tuple(units), tuple(flags))


def change_rate(prev: ActivationSnapshot, curr: ActivationSnapshot) -> np.ndarray:
    """Per-neuron cosine change rate between consecutive snapshots.

    A neuron dead in both epochs counts as unchanged (rate 1); a neuron
    dying or reviving counts as maximal change (rate 0). Results are
    clamped to [-1, 1] against rounding spill.
    """
    prev_shapes, curr_shapes = (tuple(u.shape for u in s.units) for s in (prev, curr))
    if prev_shapes != curr_shapes:
        raise ConfigError(f"snapshot registries differ: {prev_shapes} vs {curr_shapes}")
    if prev.epoch + 1 != curr.epoch:
        raise ConfigError(
            f"snapshots must be consecutive, got epochs {prev.epoch} and {curr.epoch}"
        )
    rates = []
    for pu, cu, pf, cf in zip(prev.units, curr.units, prev.zero_flags, curr.zero_flags):
        rho = np.clip(np.einsum("nl,nl->n", pu, cu), -1.0, 1.0)
        both_dead = pf & cf
        one_dead = pf ^ cf
        rho = np.where(both_dead, 1.0, rho)
        rho = np.where(one_dead, 0.0, rho)
        rates.append(rho)
    return np.concatenate(rates)


@dataclass(frozen=True)
class VelocityState:
    """Per-neuron velocities plus the model-velocity history of a run."""

    v: np.ndarray                     # per-neuron, all >= 0
    rho: np.ndarray | None            # change rates of the latest step
    history: tuple[float, ...]        # model velocity per epoch, epoch 1 first

    @classmethod
    def initial(cls, n_neurons: int) -> "VelocityState":
        if n_neurons < 1:
            raise ConfigError("velocity state needs at least one probed neuron")
        return cls(np.zeros(n_neurons), None, ())


def velocity_step(state: VelocityState, rho: np.ndarray) -> VelocityState:
    """Advance one epoch: v <- |(1 - rho) - MU * v|, append the new model
    velocity to the history. Pure: the input state is left untouched."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != state.v.shape:
        raise ConfigError(
            f"change-rate vector shape {rho.shape} != velocity shape {state.v.shape}"
        )
    v_new = np.abs((1.0 - rho) - MU * state.v)
    return VelocityState(v_new, rho, state.history + (float(v_new.mean()),))
