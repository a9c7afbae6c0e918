"""Span tracing installed from outside the program.

``install`` wraps the public functions of each traced neve module (and
the forward/backward methods of the layer classes, ``Model.forward`` and
``Optimizer.step``) and rebinds every neve module attribute that held the
original, so names imported with ``from ... import`` are traced too. A
span is ``(name, start, end, parent)``; spans live in memory until the
round ends. ``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# module -> span prefix; every public function defined in the module is wrapped
TRACED_MODULES = {
    "neve.data": "data",
    "neve.engine.layers": "engine.layers",
    "neve.engine.model": "engine.model",
    "neve.velocity": "velocity",
    "neve.controller": "controller",
    "neve.experiment.runner": "experiment.runner",
    "neve.experiment.svg": "experiment.output",
}

# functions that write run output (CSV, SVG, summaries, velocity dumps)
OUTPUT_FUNCTIONS = {
    "neve.experiment.runner": ("emit_csv", "emit_plots", "records_to_csv", "_dump_velocity"),
    "neve.experiment.cli": ("_write_summary_csv", "_echo_config"),
}

LAYER_NAMES = {"Conv2d": "conv", "Dense": "dense", "ReLU": "relu", "Flatten": "flatten"}


class Tracer:
    """In-memory span recorder with per-span work counters."""

    def __init__(self):
        self.spans: list = []
        self.work: Counter = Counter()            # span name -> multiply-adds
        self.keys: defaultdict = defaultdict(set)  # span name -> distinct argument keys
        self._stack: list = []

    def wrap(self, name, fn, work=None, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, stack[-1] if stack else -1)
            if work is not None:
                self.work[name] += work(args, out)
            if key is not None:
                self.keys[name].add(key(args))
            return out
        return traced

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent"], "spans": self.spans}


def rebind(original, replacement) -> None:
    """Point every neve module attribute holding ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "neve" or mod_name.startswith("neve.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _macs(layer, out_shape) -> int:
    """Multiply-adds of one forward pass that produced ``out_shape``."""
    n_out = 1
    for d in out_shape:
        n_out *= d
    if hasattr(layer, "kernel"):
        return n_out * layer.in_channels * layer.kernel * layer.kernel
    return n_out * layer.in_features


def _forward_macs(args, out):
    return _macs(args[0], out.shape)


def _backward_macs(args, out):
    # the weight gradient and the input gradient each cost one forward
    return 2 * _macs(args[0], args[1].shape)


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and the layer methods."""
    import neve.engine.layers as layers
    import neve.engine.model as model
    import neve.engine.optim as optim
    import neve.experiment.cli  # noqa: F401  (rebinding reaches its imports)

    for mod_name, prefix in TRACED_MODULES.items():
        mod = sys.modules[mod_name]
        for fname, fn in inspect.getmembers(mod, inspect.isfunction):
            if fname.startswith("_") or fn.__module__ != mod_name:
                continue
            name = f"{prefix}.{fname}"
            if fname == "load_dataset":
                wrapped = tracer.wrap("data.load", fn, key=lambda a: a[0])
            elif fname in OUTPUT_FUNCTIONS.get(mod_name, ()):
                wrapped = tracer.wrap(f"experiment.output.{fname}", fn)
            else:
                wrapped = tracer.wrap(name, fn)
            rebind(fn, wrapped)
    for mod_name, fnames in OUTPUT_FUNCTIONS.items():
        mod = sys.modules[mod_name]
        for fname in fnames:
            fn = getattr(mod, fname, None)
            if fname.startswith("_") and fn is not None:
                rebind(fn, tracer.wrap(f"experiment.output.{fname}", fn))

    for cls_name, short in LAYER_NAMES.items():
        cls = getattr(layers, cls_name)
        counted = short in ("conv", "dense")
        cls.forward = tracer.wrap(f"engine.layers.{short}.fwd", cls.forward,
                                  work=_forward_macs if counted else None)
        cls.backward = tracer.wrap(f"engine.layers.{short}.bwd", cls.backward,
                                   work=_backward_macs if counted else None)

    forward = model.Model.forward
    plain = tracer.wrap("engine.model.forward", forward)
    probed = tracer.wrap("engine.model.forward_probe", forward)

    @functools.wraps(forward)
    def model_forward(self, batch, capture_probes=False):
        return (probed if capture_probes else plain)(self, batch, capture_probes=capture_probes)

    model.Model.forward = model_forward
    optim.Optimizer.step = tracer.wrap("engine.optim.step", optim.Optimizer.step)


def _in_epoch(spans) -> list[bool]:
    """Whether each span started inside a training epoch, as opposed to a
    run's set-up (data load, model build, the epoch-0 snapshot). Spans
    are stored in start order, so one pass suffices."""
    flags = []
    inside = False
    for name, *_ in spans:
        if name == "experiment.runner.run_training":
            inside = False
        elif name in ("engine.model.backward_and_step", "data.augment"):
            inside = True
        flags.append(inside)
    return flags


def layer_metrics(tracer: Tracer, epochs: int, runs: int, epoch_wall_s: float) -> dict:
    """Per-layer metrics of one traced round.

    ``epochs`` is the number of training epochs run in the round, ``runs``
    the number of training runs and ``epoch_wall_s`` the summed epoch
    times the program logged. ``*_ms`` metrics are per epoch and count
    only spans inside epochs, except the per-call ones named below.
    """
    spans = tracer.spans
    total = Counter()       # all spans
    in_epoch = Counter()    # spans inside training epochs
    calls = Counter()
    inside_flags = _in_epoch(spans)
    for (name, start, end, _), inside in zip(spans, inside_flags):
        total[name] += end - start
        calls[name] += 1
        if inside:
            in_epoch[name] += end - start
    epochs = max(epochs, 1)

    def per_epoch_ms(*names):
        return 1e3 * sum(in_epoch[n] for n in names) / epochs

    def per_call(scale, *names):
        n = sum(calls[name] for name in names)
        return scale * sum(total[name] for name in names) / n if n else 0.0

    def gflops(short):
        names = (f"engine.layers.{short}.fwd", f"engine.layers.{short}.bwd")
        secs = sum(total[n] for n in names)
        return 2.0 * sum(tracer.work[n] for n in names) / secs / 1e9 if secs else 0.0

    output_s = sum(end - start for name, start, end, parent in spans
                   if name.startswith("experiment.output.")
                   and not (parent >= 0 and spans[parent][0].startswith("experiment.output.")))
    forward_self_s = sum(in_epoch[n]
                         for n in ("engine.model.forward", "engine.model.forward_probe"))
    for (name, start, end, parent), inside in zip(spans, inside_flags):
        if (inside and parent >= 0 and name.startswith("engine.layers.")
                and spans[parent][0].startswith("engine.model.forward")):
            forward_self_s -= end - start
    snapshot = per_epoch_ms("engine.model.forward_probe", "velocity.normalize_capture")
    update = per_epoch_ms("velocity.change_rate", "velocity.velocity_step")
    train = per_epoch_ms("engine.model.backward_and_step", "data.augment")
    evaluate = per_epoch_ms("engine.model.evaluate")
    decide = per_epoch_ms("controller.neve_decide", "controller.baseline_decide")
    load_calls = calls["data.load"]
    return {
        "data.load_ms": 1e3 * total["data.load"],                     # per round
        "data.load_calls": load_calls,
        "data.load_distinct_ratio": (len(tracer.keys["data.load"]) / load_calls
                                     if load_calls else 0.0),
        "data.augment_ms": per_call(1e3, "data.augment"),             # per batch
        "engine.layers.conv.fwd_ms": per_epoch_ms("engine.layers.conv.fwd"),
        "engine.layers.conv.bwd_ms": per_epoch_ms("engine.layers.conv.bwd"),
        "engine.layers.conv.gflops": gflops("conv"),
        "engine.layers.dense.fwd_ms": per_epoch_ms("engine.layers.dense.fwd"),
        "engine.layers.dense.bwd_ms": per_epoch_ms("engine.layers.dense.bwd"),
        "engine.layers.dense.gflops": gflops("dense"),
        "engine.layers.relu.fwd_ms": per_epoch_ms("engine.layers.relu.fwd"),
        "engine.layers.relu.bwd_ms": per_epoch_ms("engine.layers.relu.bwd"),
        "engine.optim.step_ms": per_epoch_ms("engine.optim.step"),
        "engine.model.train_step_ms": per_call(1e3, "engine.model.backward_and_step"),
        "engine.model.forward_self_ms": 1e3 * forward_self_s / epochs,
        "engine.model.evaluate_ms": evaluate,
        "velocity.snapshot_ms": snapshot,
        "velocity.update_ms": update,
        "controller.decide_us": per_call(1e6, "controller.neve_decide",
                                         "controller.baseline_decide"),
        "experiment.runner.train_ms": train,
        "experiment.runner.probe_ms": snapshot + update,
        "experiment.runner.eval_ms": evaluate,
        "experiment.runner.decide_ms": decide,
        "experiment.runner.other_ms":
            1e3 * epoch_wall_s / epochs - train - snapshot - update - evaluate - decide,
        "experiment.output_ms": 1e3 * output_s / max(runs, 1),        # per run
    }
