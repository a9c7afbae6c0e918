"""The benchmark's own tests: smoke runs of every workload and the checks.

    python3 -m pytest perfbench/tests -q

The smoke runs use the tiny workload sizes (``--smoke``): every check of
a full round runs, in a few seconds. No timing is asserted.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from neve.controller import (BaselineSchedulerConfig, ControllerConfig,  # noqa: E402
                             baseline_decide)
from neve.engine import build_model, evaluate  # noqa: E402
from neve.experiment import (ExperimentConfig, config_from_dict,  # noqa: E402
                             replay_neve_decisions, run_training)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(tmp_path, workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "2",
           "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(tmp_path / "out")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_round_prints_every_end_to_end_metric(tmp_path, workload):
    proc = run_bench(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % workloads.expected_runs(workload, smoke=True) == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    saved = json.loads((tmp_path / "out" / workload / "result.json").read_text())
    assert {"numpy", "blas", "blas_threads", "nproc", "python", "git_commit", "seed",
            "run_seeds"} <= set(saved["env"])
    assert saved["env"]["blas_threads"] <= saved["env"]["nproc"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_round_prints_every_per_layer_metric(tmp_path, workload):
    proc = run_bench(tmp_path, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(math.isfinite(v) for v in metrics.values())
    conv = metrics["engine.layers.conv.fwd_ms"]
    assert (conv > 0) == (workload == "digits-conv")
    assert (metrics["data.augment_ms"] > 0) == (workload == "digits-conv")
    assert metrics["engine.layers.dense.fwd_ms"] > 0 and metrics["data.load_calls"] >= 1
    spans = json.loads(next((tmp_path / "out" / workload).glob("round*/spans.json"))
                       .read_text())
    assert spans["fields"] == ["name", "start", "end", "parent"] and spans["spans"]


def test_without_package_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "digits-conv", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# The checks agree with the program on good output and catch bad output


def test_neve_rule_agrees_with_the_controller_replay():
    rng = np.random.default_rng(0)
    cfg = ControllerConfig(epsilon=1e-3, patience=3, cooldown=2)
    for _ in range(200):
        series = list(np.exp(np.cumsum(rng.normal(-0.3, 0.2, 40))) * rng.uniform(0.01, 1))
        series = [float(v) for v in series]
        lr, program = 0.1, []
        for d in replay_neve_decisions(series, cfg, 0.1):
            lr = d.new_lr if d.verdict == "rescale" else lr
            program.append((d.verdict, lr))
        ours = checks.neve_schedule(series, 0.1, epsilon=1e-3, alpha=cfg.alpha, patience=3,
                                    rel_span=cfg.plateau_rel_span, cooldown=2)
        assert ours == program


def test_vloss_rule_agrees_with_the_baseline_scheduler():
    rng = np.random.default_rng(1)
    cfg = BaselineSchedulerConfig(kind="vloss", patience=2, stop_patience=5)
    for _ in range(200):
        series = [float(v) for v in rng.uniform(0, 1, 30)]
        ours = checks.vloss_schedule(series, 1.0, factor=cfg.factor, patience=2,
                                     stop_patience=5)
        lr = 1.0
        for t, (verdict, our_lr) in enumerate(ours, start=1):
            d = baseline_decide(cfg, series, lr, t)
            lr = d.new_lr if d.verdict == "rescale" else lr
            assert (d.verdict, lr) == (verdict, our_lr)
        assert ours[-1][0] == "stop" or len(ours) == len(series)


@pytest.fixture(scope="module")
def blobs_run():
    cfg = config_from_dict({
        "dataset": {"name": "blobs", "n_samples": 300, "test_samples": 200},
        "scheduler": {"kind": "neve", "epsilon": 5e-3}, "max_epochs": 30,
        "batch_size": 64})
    return cfg, run_training(cfg, seed=3)


def test_decision_check_catches_a_changed_decision(blobs_run):
    cfg, result = blobs_run
    rows = checks.record_rows(result.records)
    assert checks.check_decisions(cfg, rows) == []
    verdict = "rescale" if rows[3][2] != "rescale" else "continue"
    rows[3] = rows[3][:2] + (verdict, rows[3][3])
    assert checks.check_decisions(cfg, rows)
    assert checks.check_decisions(cfg, checks.record_rows(result.records)[:-2])


def test_epsilon_check_catches_a_changed_row(blobs_run):
    cfg, result = blobs_run
    records = result.records
    assert checks.check_epsilon_pair(records, records[:5]) == []
    assert checks.check_epsilon_pair(records[:5], records)
    changed = list(records[:5])
    changed[2] = dataclasses.replace(changed[2], train_loss=1.0)
    assert checks.check_epsilon_pair(records, changed)


def test_forward_check_recomputes_dense_and_conv_models():
    rng = np.random.default_rng(2)
    arch = [{"kind": "conv", "out_channels": 3, "kernel": 3, "stride": 2, "pad": 1},
            {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 4}]
    for model in (build_model(arch, seed=1, input_shape=(2, 9, 9)),
                  build_model("mlp:162-8-4", seed=1, input_shape=(2, 9, 9))):
        samples = rng.normal(size=(60, 2, 9, 9))
        labels = rng.integers(0, 4, 60)
        test = type("T", (), {"samples": samples, "labels": labels})
        loss, acc = evaluate(model, samples, labels)
        assert checks.check_final_test(model, test, loss, acc) == []
        assert checks.check_final_test(model, test, loss * 1.001, acc)
        assert checks.check_final_test(model, test, loss, acc + 2 / 60)


def test_velocity_dump_check_catches_a_broken_recurrence(tmp_path):
    cfg = ExperimentConfig().replace(max_epochs=4)
    cfg = cfg.replace(dataset=cfg.dataset_with(n_samples=200, test_samples=100))
    result = run_training(cfg, seed=1, dump_dir=tmp_path)
    logged = [r.model_velocity for r in result.records]
    assert checks.check_velocity_dumps(tmp_path, logged) == []
    path = tmp_path / "velocity_epoch0003.csv"
    lines = path.read_text().splitlines()
    i, rho, v = lines[1].split(",")
    lines[1] = ",".join([i, rho, repr(float(v) + 1e-9)])
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_velocity_dumps(tmp_path, logged)
    assert checks.check_velocity_dumps(tmp_path, logged[:-1])


def test_summary_check_reads_mean_accuracy(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text("label,mean_test_acc,std_test_acc,mean_stop_epoch,std_stop_epoch,seeds\n"
                    f"a,{float(np.mean([0.5, 0.7]))!r},0.1,3.0,0.0,1 2\n")
    assert checks.check_summary(path, [[0.5, 0.7]]) == []
    assert checks.check_summary(path, [[0.5, 0.8]])
    assert checks.check_summary(path, [[0.5, 0.7], [0.1]])
