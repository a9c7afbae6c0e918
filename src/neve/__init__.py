"""Validation-free training control driven by neural velocity.

The toolkit tracks how fast each neuron's input-to-output function moves
during training (sampled on a frozen auxiliary set, noise by default),
decays the learning rate when that movement plateaus, and stops training
once it falls below a threshold — no validation split required.
"""

from .controller import (ControllerDecision, EpsilonAnalysis, SchedulerSpec,
                         SchedulerState, epsilon_analysis, neve_decide, softmax_delta)
from .data import (Dataset, augment, gen_blobs, gen_digits, load_cifar10,
                   load_idx, make_aux_from_samples, make_aux_noise, split, standardize,
                   write_idx)
from .engine import Model, Optimizer, OptimizerSpec, backward_and_step, build_model, evaluate
from .errors import ConfigError, DataFormatError, NeveError, NumericError
from .velocity import (ActivationSnapshot, VelocityState, change_rate,
                       normalize_capture, velocity_step)

__version__ = "0.1.0"

__all__ = [
    "ControllerDecision", "EpsilonAnalysis", "SchedulerSpec", "SchedulerState",
    "epsilon_analysis", "neve_decide", "softmax_delta",
    "Dataset", "augment", "gen_blobs", "gen_digits", "load_cifar10",
    "load_idx", "make_aux_from_samples", "make_aux_noise", "split", "standardize",
    "write_idx",
    "Model", "Optimizer", "OptimizerSpec", "backward_and_step", "build_model", "evaluate",
    "ConfigError", "DataFormatError", "NeveError", "NumericError",
    "ActivationSnapshot", "VelocityState", "change_rate", "normalize_capture",
    "velocity_step",
    "__version__",
]
