"""Run the benchmark's workloads through the CLI of one neve source tree.

Usage: python3 tools/run_workloads.py SRC OUT [--seed N]

For each workload named in ``perfbench/workloads.py`` (the copy next to
this tool, so that two trees get the same arguments), runs
``neve <cli_args(name, N, OUT/name)>`` in a fresh interpreter that
imports neve from ``SRC/src``, with ``OPENBLAS_NUM_THREADS=1`` set before
numpy loads. Each workload writes its run directory ``OUT/<name>``.
Six small runs follow, each covering a path no workload takes: an
``optim-compare`` run (blobs; SGD with momentum and Adam, each under neve
and fixed, weight decay 1e-3) into ``OUT/optim-compare``; an
``aux-sweep`` run (blobs; probe-free ``val=0`` and ``val=0.2`` variants,
then the ``noise`` and ``heldout`` aux sources at two sizes each, with
``--dump-velocity``) into ``OUT/aux-sweep``; a digits
``train`` run into ``OUT/conv-geometry`` whose conv net (a k5/s1/p2 conv,
then a k3/s3/p0 conv; passed in a config file written there) trains at
batch 50 with ``pad_crop_flip`` and ``--dump-velocity``, so that tail
batches, other conv border cases than the workload's k3/s2/p1, and the
per-neuron velocities of a probe that runs in 5 inference blocks of 20
rows are compared too; a digits
``train`` run into ``OUT/data-paths`` with ``subset``, ``normalize``, a
validation split that the vloss scheduler and a ``heldout`` aux set read,
and ``--probe heldout,noise,train`` (``heldout`` first, so its velocity
fills the records' ``model_velocity`` column); a blobs ``train`` run into
``OUT/output-formats`` over two seeds with ``--dump-velocity`` whose config
file (written there) sets the integer learning rate ``"lr": 1``, so that
an integer-valued rate cell and the dumps' line endings are compared; and
an ``epsilon-analysis`` run whose chart goes to
``OUT/epsilon-analysis/eps.svg`` and whose printed table goes to
``OUT/epsilon-analysis/table.txt``. Two more runs read dataset files,
which they first write from ``random.Random(seed)`` bytes, so that both
trees read the same files: an ``idx-data`` ``train --dataset idx`` run
with ``--subset`` on an IDX train and test pair of 8x8 images, and a
``cifar-data`` ``train`` run whose config file names two CIFAR-10 train
batches and a test batch; each trains a small MLP. Every run is started
from its own ``OUT/<name>`` directory, and these two name their files and
``--out`` relative to it, so ``config.json`` holds no OUT root. Every
other run's output is discarded.
Two such OUT directories, one per tree, are what
``tools/compare_outputs.py`` compares for the same-behaviour check.
Exit status: 0 when every run exits 0, else 1; 2 on a usage error.
Standard library only; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def optim_compare_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra optim-compare run; a function of the seed alone."""
    return ["optim-compare", "--out", str(out_dir), "--seeds", str(3 * seed + 1),
            "--data-seed", str(seed), "--aux-seed", str(seed), "--dataset", "blobs",
            "--n-samples", "600", "--test-samples", "300", "--arch", "mlp:2-32-32-4",
            "--batch-size", "64", "--max-epochs", "15", "--momentum", "0.9",
            "--weight-decay", "1e-3", "--adam-lr", "0.01"]


def aux_sweep_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra aux-sweep run; a function of the seed alone."""
    return ["aux-sweep", "--out", str(out_dir), "--seeds", str(3 * seed + 1),
            "--data-seed", str(seed), "--aux-seed", str(seed), "--dataset", "blobs",
            "--n-samples", "400", "--test-samples", "200", "--arch", "mlp:2-16-4",
            "--batch-size", "64", "--max-epochs", "8", "--val-fracs", "0,0.2",
            "--aux-sizes", "5,50", "--aux-sources", "noise,heldout", "--dump-velocity"]


# 1x28x28 -> 4x28x28 (k5/s1/p2) -> 6x9x9 (k3/s3/p0) -> 10
GEOMETRY_ARCH = [
    {"kind": "conv", "out_channels": 4, "kernel": 5, "stride": 1, "pad": 2},
    {"kind": "relu"},
    {"kind": "conv", "out_channels": 6, "kernel": 3, "stride": 3, "pad": 0},
    {"kind": "relu"},
    {"kind": "flatten"},
    {"kind": "dense", "out": 10},
]


def conv_geometry_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra conv-geometry run; writes its arch to ``out_dir``."""
    config = out_dir / "geometry_config.json"
    config.write_text(json.dumps({"arch": GEOMETRY_ARCH}))
    return ["train", "--config", str(config), "--out", str(out_dir),
            "--seeds", str(3 * seed + 1), "--data-seed", str(seed), "--aux-seed", str(seed),
            "--dataset", "digits", "--n-samples", "330", "--test-samples", "170",
            "--augment", "pad_crop_flip", "--batch-size", "50", "--max-epochs", "3",
            "--dump-velocity"]


def data_paths_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra data-paths run; a function of the seed alone."""
    return ["train", "--out", str(out_dir), "--seeds", str(3 * seed + 1),
            "--data-seed", str(seed), "--aux-seed", str(seed), "--dataset", "digits",
            "--n-samples", "600", "--test-samples", "200", "--subset", "300", "--normalize",
            "--val-fraction", "0.2", "--probe", "heldout,noise,train",
            "--scheduler", "vloss", "--vloss-patience", "1", "--stop-patience", "3",
            "--arch", "mlp:784-32-10", "--batch-size", "50", "--max-epochs", "4"]


def output_formats_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra output-formats run; writes its config file to ``out_dir``."""
    config = out_dir / "formats_config.json"
    config.write_text(json.dumps({"optimizer": {"lr": 1, "momentum": 0.0}}))
    return ["train", "--config", str(config), "--out", str(out_dir), "--seeds", "1,2",
            "--data-seed", str(seed), "--aux-seed", str(seed), "--dataset", "blobs",
            "--n-samples", "400", "--test-samples", "200", "--arch", "mlp:2-16-4",
            "--max-epochs", "3", "--scheduler", "fixed", "--dump-velocity"]


def epsilon_analysis_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra epsilon-analysis run; the same at every seed."""
    return ["epsilon-analysis", "--eps-grid", "1e-4,1e-3,1e-2", "--svg", str(out_dir / "eps.svg")]


def _shuffled_labels(rng: random.Random, n: int, n_classes: int) -> bytes:
    """``n`` label bytes holding every class, in an order drawn from ``rng``."""
    labels = [i % n_classes for i in range(n)]
    rng.shuffle(labels)
    return bytes(labels)


def idx_data_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra idx-data run; writes its IDX files (300 train and
    100 test 8x8 images, 4 classes) to ``out_dir`` and names them relative to it."""
    rng = random.Random(seed)
    for part, n in (("train", 300), ("test", 100)):
        (out_dir / f"{part}-images.idx").write_bytes(
            struct.pack(">IIII", 0x803, n, 8, 8) + rng.randbytes(n * 8 * 8))
        (out_dir / f"{part}-labels.idx").write_bytes(
            struct.pack(">II", 0x801, n) + _shuffled_labels(rng, n, 4))
    return ["train", "--out", ".", "--seeds", str(3 * seed + 1), "--data-seed", str(seed),
            "--aux-seed", str(seed), "--dataset", "idx",
            "--train-images", "train-images.idx", "--train-labels", "train-labels.idx",
            "--test-images", "test-images.idx", "--test-labels", "test-labels.idx",
            "--subset", "200", "--arch", "mlp:64-16-4", "--batch-size", "32",
            "--max-epochs", "4"]


def cifar_data_args(seed: int, out_dir: Path) -> list[str]:
    """argv of the extra cifar-data run; writes two CIFAR-10 train batches of
    150 records, a test batch of 100 and a config file naming them to
    ``out_dir``, each named relative to it."""
    rng = random.Random(seed)
    batches = {"train-1.bin": 150, "train-2.bin": 150, "test.bin": 100}
    for name, n in batches.items():
        (out_dir / name).write_bytes(b"".join(bytes([label]) + rng.randbytes(3 * 32 * 32)
                                              for label in _shuffled_labels(rng, n, 10)))
    (out_dir / "cifar_config.json").write_text(json.dumps(
        {"dataset": {"name": "cifar10", "cifar_train_paths": ["train-1.bin", "train-2.bin"],
                     "cifar_test_paths": ["test.bin"]}}))
    return ["train", "--config", "cifar_config.json", "--out", ".",
            "--seeds", str(3 * seed + 1), "--data-seed", str(seed), "--aux-seed", str(seed),
            "--arch", "mlp:3072-16-10", "--batch-size", "50", "--max-epochs", "3"]


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", type=Path, help="neve source tree (holds src/neve)")
    p.add_argument("out", type=Path, help="output root; one directory per workload")
    p.add_argument("--seed", type=int, default=7, help="benchmark seed (default 7)")
    args = p.parse_args(argv)
    if not (args.src / "src" / "neve" / "__init__.py").is_file():
        print(f"{args.src} is not a neve source tree (no src/neve)", file=sys.stderr)
        return 2
    workloads = load_workloads()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str((args.src / "src").resolve()))
    failed = []
    extra = {"optim-compare": optim_compare_args, "aux-sweep": aux_sweep_args,
             "conv-geometry": conv_geometry_args, "data-paths": data_paths_args,
             "output-formats": output_formats_args, "epsilon-analysis": epsilon_analysis_args,
             "idx-data": idx_data_args, "cifar-data": cifar_data_args}
    for name in (*workloads.WORKLOADS, *extra):
        out_dir = (args.out / name).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        if name in extra:
            cli = extra[name](args.seed, out_dir)
        else:
            cli = workloads.cli_args(name, args.seed, out_dir)
        print(f"{name}: neve {' '.join(cli)}", flush=True)
        printed = out_dir / "table.txt" if name == "epsilon-analysis" else os.devnull
        with open(printed, "w") as stdout:
            proc = subprocess.run([sys.executable, "-m", "neve.experiment.cli", *cli],
                                  env=env, stdout=stdout, cwd=out_dir)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
