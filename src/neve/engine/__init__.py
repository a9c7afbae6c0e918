"""Minimal deterministic feedforward training engine with activation probes."""

from .layers import Conv2d, Dense, Flatten, ReLU, cross_entropy, softmax
from .model import Model, backward_and_step, build_model, compute_gradients, evaluate
from .optim import Optimizer, OptimizerSpec

__all__ = [
    "Conv2d", "Dense", "Flatten", "ReLU", "cross_entropy", "softmax",
    "Model", "backward_and_step", "build_model", "compute_gradients", "evaluate",
    "Optimizer", "OptimizerSpec",
]
