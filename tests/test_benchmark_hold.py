"""The benchmark's hold on the package, checked from this side.

``perfbench/`` reads the package by name: it imports names, wraps the
public functions of the modules in ``spans.TRACED_MODULES`` and the layer
and optimizer methods, rebinds ``run_training`` and folds the spans into
phases by name. A change that renames one of these, or routes a pass
around a traced method, fails no check of the benchmark; its phase just
reads 0. So these tests list every such name and check that it exists
with the parameters the harness passes, and run one traced smoke round
per workload (``perfbench/worker.py --trace 1 --smoke``, a few seconds
each) whose every phase must register.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neve.engine import Conv2d, Dense, Model, Optimizer
from neve.experiment import ExperimentConfig, RunRecord, RunResult, load_dataset, run_training
from neve.experiment.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
SPANS_SOURCE = (BENCH / "spans.py").read_text()

# the traced functions whose span names ``spans.layer_metrics`` folds into phases
PHASE_FUNCTIONS = {
    "neve.data": ("augment",),
    "neve.engine.model": ("backward_and_step", "evaluate"),
    "neve.velocity": ("normalize_capture", "change_rate", "velocity_step"),
    "neve.controller": ("neve_decide", "baseline_decide"),
    "neve.experiment.runner": ("run_training", "load_dataset"),
}

# attributes the harness reads: of a layer (``spans._macs``, ``checks.logits_of``),
# a config and its parts (``checks.expected_schedule``, ``worker.check_runs``),
# a run's result and its records (``worker``, ``checks.record_rows``)
LAYER_ATTRIBUTES = {Dense: ("in_features", "params"),
                    Conv2d: ("in_channels", "kernel", "stride", "pad", "params")}
CONFIG_FIELDS = {
    "": ("dataset", "scheduler", "optimizer", "max_epochs"),
    "scheduler": ("kind", "epsilon", "alpha", "patience", "plateau_rel_span", "cooldown",
                  "min_lr", "factor", "vloss_patience", "stop_patience", "milestones"),
    "optimizer": ("lr",),
    "dataset": ("validation_fraction",),
}
RESULT_ATTRIBUTES = ("records", "failed", "error", "model")
RECORD_FIELDS = ("model_velocity", "val_loss", "decision", "learning_rate", "test_loss",
                 "test_acc", "train_loss", "wall_seconds")

# per-layer metrics that need not be positive: what no phase claims of an
# epoch, and the tracing overhead, which ``run.py`` computes across rounds
NOT_A_PHASE = ("experiment.runner.other_ms", "trace.overhead_s")
CONV_ONLY = ("engine.layers.conv.fwd_ms", "engine.layers.conv.bwd_ms",
             "engine.layers.conv.gflops", "data.augment_ms")


def imported_names():
    """(module, name) of every ``from neve... import name`` in ``perfbench/``
    and its tests, and (module, None) of every ``import neve...``."""
    found = set()
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("neve"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "neve")
    return sorted(found, key=str)


def params_of(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_the_harness_imports_the_names_listed_here():
    names = imported_names()
    assert ("neve.experiment.runner", "load_dataset") in names
    assert ("neve.experiment.cli", None) in names and ("neve.engine", "build_model") in names


@pytest.mark.parametrize("module,name", imported_names())
def test_every_imported_name_exists(module, name):
    mod = importlib.import_module(module)
    assert name is None or hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", list(spans.TRACED_MODULES))
def test_every_traced_module_defines_public_functions(module):
    mod = importlib.import_module(module)
    assert any(not name.startswith("_") and fn.__module__ == module
               for name, fn in inspect.getmembers(mod, inspect.isfunction))


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PHASE_FUNCTIONS.items()
                                         for n in names])
def test_every_phase_function_is_traced(module, name):
    # the tracer wraps a module's public functions defined there, under its prefix
    assert module in spans.TRACED_MODULES and name in SPANS_SOURCE
    fn = getattr(importlib.import_module(module), name)
    assert inspect.isfunction(fn) and fn.__module__ == module and not name.startswith("_")


@pytest.mark.parametrize("module,name", [(m, n) for m, names in spans.OUTPUT_FUNCTIONS.items()
                                         for n in names])
def test_every_output_function_exists(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("cls_name", list(spans.LAYER_NAMES))
def test_every_layer_class_has_traced_methods(cls_name):
    # the work counters read the layer and the first argument after it
    cls = getattr(importlib.import_module("neve.engine.layers"), cls_name)
    assert params_of(cls.forward)[:2] == ["self", "x"]
    assert params_of(cls.backward)[:2] == ["self", "grad"]


def test_layers_have_the_attributes_the_harness_reads():
    rng = np.random.default_rng(0)
    for layer in (Dense(3, 2, rng=rng), Conv2d(1, 2, 3, rng=rng)):
        for attr in LAYER_ATTRIBUTES[type(layer)]:
            assert hasattr(layer, attr), (type(layer).__name__, attr)
        assert set(layer.params) == {"W", "b"}


def test_wrapped_and_rebound_callables_take_what_the_harness_passes():
    # spans.install's Model.forward wrapper, Optimizer.step, worker.capture
    # (which replaces run_training), worker.check_runs and the CLI entry
    assert params_of(Model.forward) == ["self", "batch", "capture_probes"]
    assert inspect.signature(Model.forward).parameters["capture_probes"].default is False
    assert params_of(Optimizer.step) == ["self", "model"]
    assert params_of(run_training) == ["cfg", "seed", "dump_dir"]
    assert inspect.signature(run_training).parameters["dump_dir"].default is None
    cfg = ExperimentConfig()
    inspect.signature(load_dataset).bind(cfg.dataset)
    inspect.signature(main).bind(["train"])
    assert params_of(workloads.cli_args)[:3] == ["name", "seed", "out_dir"]


def test_configs_results_and_records_have_the_fields_the_harness_reads():
    cfg = ExperimentConfig()
    for part, names in CONFIG_FIELDS.items():
        obj = getattr(cfg, part) if part else cfg
        for name in names:
            assert hasattr(obj, name), f"{part}.{name}"
    dataclasses.replace(cfg.dataset, validation_fraction=0.0)
    for name in RESULT_ATTRIBUTES:
        assert hasattr(RunResult, name) or name in RunResult.__dataclass_fields__, name
    assert set(RECORD_FIELDS) <= {f.name for f in dataclasses.fields(RunRecord)}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced_round(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", request.param,
                           "--seed", "2", "--out", str(out), "--trace", "1", "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return request.param, json.loads((out / "round.json").read_text())


def test_traced_smoke_round_registers_every_phase(traced_round):
    name, report = traced_round
    assert report["correct"] and not report["failed"], report["problems"]
    metrics = report["layers"]
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert set(metrics) == set(declared) - {"trace.overhead_s"}
    silent = [m for m in declared if m not in NOT_A_PHASE and m not in CONV_ONLY
              and not metrics[m] > 0]
    assert not silent, f"{name}: phases that read 0: {silent}"
    for m in CONV_ONLY:
        assert (metrics[m] > 0) == (name == "digits-conv"), m
