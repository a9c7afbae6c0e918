"""The benchmark's workloads: which `neve` CLI command each round runs.

Every workload is a function of the benchmark seed alone, so the same
seed gives the same inputs. The seed picks the dataset seed, the
auxiliary-set seed and the training-run seeds; nothing else varies.
``smoke`` shrinks each workload to a few seconds for the benchmark's own
tests while keeping every code path (and every check) of the full size.

This module is stdlib-only: `run.py` imports it without numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

# Two conv layers, both stride 2: 1x28x28 -> 8x14x14 -> 16x7x7 -> 10.
# The first probe point sees per-channel vectors of 100 * 14 * 14 values.
CONV_ARCH = [
    {"kind": "conv", "out_channels": 8, "kernel": 3, "stride": 2, "pad": 1},
    {"kind": "relu"},
    {"kind": "conv", "out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
    {"kind": "relu"},
    {"kind": "flatten"},
    {"kind": "dense", "out": 10},
]

# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = ("blobs-eps-sweep", "digits-mlp-compare", "digits-conv")


def run_seeds(name: str, seed: int, smoke: bool) -> list[int]:
    """Training-run seeds of one round; derived from the benchmark seed."""
    count = {"blobs-eps-sweep": 2 if smoke else 3}.get(name, 1)
    return [3 * seed + 1 + i for i in range(count)]


def expected_runs(name: str, smoke: bool) -> int:
    """Training runs (operations) in one round of the workload."""
    per_seed = {"blobs-eps-sweep": 3 if smoke else 4, "digits-mlp-compare": 4}.get(name, 1)
    return per_seed * len(run_seeds(name, 0, smoke))


def cli_args(name: str, seed: int, out_dir: Path, smoke: bool = False) -> list[str]:
    """argv for ``neve.experiment.cli.main``. Settings without a CLI flag
    (the conv architecture, the digit shift) go into a config file that
    is written to ``out_dir``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    seeds = ",".join(str(s) for s in run_seeds(name, seed, smoke))
    common = ["--out", str(out_dir), "--seeds", seeds,
              "--data-seed", str(seed), "--aux-seed", str(seed)]
    if smoke:   # short patience and a loose plateau, so that the few smoke epochs rescale and stop
        common += ["--patience", "2", "--rel-span", "0.5",
                   "--vloss-patience", "1", "--stop-patience", "2"]
    if name == "blobs-eps-sweep":
        return ["epsilon-sweep", *common, "--dataset", "blobs",
                "--n-samples", "400" if smoke else "2000",
                "--test-samples", "200" if smoke else "1000",
                "--n-classes", "6", "--sigma", "0.6", "--arch", "mlp:2-64-64-6",
                "--batch-size", "256", "--max-epochs", "25" if smoke else "120",
                "--eps-grid", "1e-3,1e-2,1e-1" if smoke else "1e-4,1e-3,1e-2,1e-1"]

    # the MLP workload uses the harder digits of the scheduler comparison in
    # the acceptance suite; the conv net is trained with flips and crops,
    # which the default digits tolerate at lr 0.1 (the harder ones do not
    # train reliably under augmentation)
    config = out_dir / "workload_config.json"
    if name == "digits-mlp-compare":
        config.write_text(json.dumps({"dataset": {"shift": 3}}))
        return ["compare", "--config", str(config), *common, "--dataset", "digits",
                "--noise", "0.3",
                "--n-samples", "300" if smoke else "2000",
                "--test-samples", "200" if smoke else "1000",
                "--arch", "mlp:784-128-64-10", "--batch-size", "128",
                "--max-epochs", "6" if smoke else "40", "--vloss-fraction", "0.3"]
    config.write_text(json.dumps({"arch": CONV_ARCH}))
    return ["train", "--config", str(config), *common, "--dataset", "digits",
            "--n-samples", "200" if smoke else "1000",
            "--test-samples", "100" if smoke else "500",
            "--augment", "pad_crop_flip", "--batch-size", "32" if smoke else "128",
            "--max-epochs", "3" if smoke else "12", "--dump-velocity"]
