"""Config, run-loop, CSV, SVG and CLI tests at desk scale.

The training runs here are deliberately tiny (hundreds of samples, tens
of epochs) so the whole module stays fast; the heavier end-to-end
behavior lives in the acceptance suite.
"""

import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest

from neve.controller import SchedulerState, neve_decide
from neve.data import Dataset, write_idx
from neve.engine import evaluate
from neve.errors import ConfigError, NumericError
from neve.experiment import (CSV_HEADER, RunRecord, config_from_dict,
                             config_from_file, line_chart, merge_overrides,
                             records_to_csv, replay_neve_decisions, run_training,
                             summarize_results)
from neve.experiment import (AuxSpec, DatasetSpec, ExperimentConfig, OptimizerSpec,
                             SchedulerSpec, runner)
from neve.experiment.cli import FLAGS, build_parser, main, resolve_config
from neve.experiment.config import field_types
from neve.experiment.runner import RunResult, load_dataset


def _item_type(hint):
    """The type of one value of a field: X for X, X | None and tuple[X, ...]."""
    args = [a for a in get_args(hint) if a not in (type(None), Ellipsis)]
    return args[0] if args else hint


def _field_hint(key):
    """The annotation of the config field behind a dotted key."""
    hint = ExperimentConfig
    for part in key.split("."):
        hint = field_types(hint)[part]
    return hint


def tiny_cfg(**kw):
    base = dict(
        dataset={"name": "blobs", "n_samples": 300, "n_classes": 3,
                 "test_samples": 150, "sigma": 0.4},
        arch="mlp:2-16-3",
        optimizer={"kind": "sgd", "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
        scheduler={"kind": "neve"},
        max_epochs=25,
        batch_size=32,
        seeds=[1],
    )
    base.update(kw)
    return config_from_dict(base)


# a few-second blobs task for the CLI tests
TINY_CLI = ["--dataset", "blobs", "--n-samples", "200", "--n-classes", "3",
            "--arch", "mlp:2-8-3", "--seeds", "1"]


class TestConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="velocity_threshold"):
            config_from_dict({"velocity_threshold": 1e-3})
        with pytest.raises(ConfigError, match="scheduler.epsilonn"):
            config_from_dict({"scheduler": {"epsilonn": 1e-3}})
        with pytest.raises(ConfigError, match="'dataset' must be a mapping"):
            config_from_dict({"dataset": 3})
        with pytest.raises(ConfigError, match="unknown config field 'out_dir'"):
            config_from_dict({"out_dir": "runs"})

    def test_vloss_requires_validation_split(self):
        with pytest.raises(ConfigError, match="validation_fraction"):
            tiny_cfg(scheduler={"kind": "vloss"})

    def test_heldout_aux_requires_validation_split(self):
        with pytest.raises(ConfigError, match="heldout"):
            tiny_cfg(aux={"source": "heldout"})

    def test_idx_paths_required(self):
        with pytest.raises(ConfigError, match="dataset.train_images"):
            tiny_cfg(dataset={"name": "idx"})

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict({"seeds": []})

    def test_every_number_and_name_field_declares_its_values(self):
        # bools and arch (annotated object) are no int, float or str fields
        undeclared = sorted(
            f"{cls.__name__}.{f.name}"
            for cls in (SchedulerSpec, DatasetSpec, OptimizerSpec, AuxSpec, ExperimentConfig)
            for f in dataclasses.fields(cls)
            if _item_type(field_types(cls)[f.name]) in (int, float, str)
            and "allowed" not in f.metadata)
        # file paths, and counts and a shift whose bounds depend on the dataset
        assert undeclared == [
            "DatasetSpec.cifar_test_paths", "DatasetSpec.cifar_train_paths",
            "DatasetSpec.n_samples", "DatasetSpec.shift", "DatasetSpec.test_images",
            "DatasetSpec.test_labels", "DatasetSpec.test_samples",
            "DatasetSpec.train_images", "DatasetSpec.train_labels"]

    def test_file_round_trip(self, tmp_path):
        # JSON turns every tuple into a list; loading turns them back,
        # except in arch, whose list of layer dicts stays a list
        batches = [str(tmp_path / name) for name in ("b1.bin", "b2.bin")]
        for path in batches:
            Path(path).touch()
        conv = tiny_cfg(
            dataset={"name": "cifar10", "cifar_train_paths": batches,
                     "validation_fraction": 0.2},
            arch=[{"kind": "conv", "out_channels": 4, "kernel": 3},
                  {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 10}],
            optimizer={"kind": "adam", "lr": 0.01},
            scheduler={"kind": "step_decay", "milestones": [3, 6]},
            probe_aux=["heldout", "train"])
        assert conv.scheduler.milestones == (3, 6)
        assert isinstance(conv.arch, list)
        for cfg in (tiny_cfg(), conv):
            p = tmp_path / "cfg.json"
            with open(p, "w") as f:
                json.dump(cfg.to_dict(), f)
            assert config_from_file(p) == cfg

    def test_merge_overrides(self):
        cfg = tiny_cfg()
        out = merge_overrides(cfg, {"scheduler.epsilon": 1e-2, "max_epochs": 7})
        assert out.scheduler.epsilon == 1e-2
        assert out.max_epochs == 7
        # an unknown field, and keys that pass through a value that is no section
        for key in ("scheduler.gamma", "arch.m", "max_epochs.x"):
            with pytest.raises(ConfigError, match=rf"unknown config field '{key}'"):
                merge_overrides(cfg, {key: 1})

    @pytest.mark.parametrize("build,field", [
        (lambda: SchedulerSpec(kind="cosine"), "scheduler.kind"),
        (lambda: SchedulerSpec(alpha=5.0), "scheduler.alpha"),
        (lambda: OptimizerSpec(momentum=1.5), "optimizer.momentum"),
        (lambda: AuxSpec(count=0), "aux.count"),
        (lambda: DatasetSpec(sigma=float("nan")), "dataset.sigma"),
        (lambda: dataclasses.replace(ExperimentConfig(), max_epochs=0), "max_epochs")])
    def test_construction_rejects_out_of_range_value(self, build, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must "):
            build()

    @pytest.mark.parametrize("build,error", [
        (lambda: SchedulerSpec(milestones=[3, 6]),
         "scheduler.milestones must be a tuple of integers, got [3, 6]"),
        (lambda: OptimizerSpec(lr="0.1"), "optimizer.lr must be a number, got '0.1'"),
        (lambda: ExperimentConfig(probe_aux="train"),
         "probe_aux must be a tuple of strings, got 'train'"),
        (lambda: SchedulerSpec(kind=None), "scheduler.kind must be a string, got None"),
        (lambda: ExperimentConfig(max_epochs=2.5), "max_epochs must be an integer, got 2.5"),
        (lambda: ExperimentConfig(batch_size=True),
         "batch_size must be an integer, got True")])
    def test_construction_rejects_value_of_wrong_type(self, build, error):
        # the rule a config file is read by: a library caller gets the same error
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            build()

    def test_bad_json_named(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            config_from_file(p)


class TestRunTraining:
    def test_neve_run_reaches_stop(self):
        res = run_training(tiny_cfg(max_epochs=60), seed=1)
        assert not res.failed
        assert res.stop_epoch is not None
        assert res.final.decision == "stop"
        assert res.final.model_velocity < 1e-3

    @pytest.mark.parametrize("lr", [0.1, 1e300])
    def test_result_model_holds_no_inference_buffers(self, lr):
        # lr 1e300 overflows the weights in the first epoch: a NumericError run
        optimizer = {"kind": "sgd", "lr": lr, "momentum": 0.9, "weight_decay": 1e-4}
        with np.errstate(all="ignore"):
            res = run_training(tiny_cfg(optimizer=optimizer, max_epochs=3), seed=1)
        assert res.failed == (lr > 1)
        assert res.model._buffers == {}

    def test_no_records_after_stop(self):
        res = run_training(tiny_cfg(max_epochs=60), seed=1)
        assert res.records[-1].epoch == res.stop_epoch
        assert all(r.decision != "stop" for r in res.records[:-1])
        assert [r.epoch for r in res.records] == list(range(1, res.stop_epoch + 1))

    def test_fixed_scheduler_constant_lr(self):
        res = run_training(tiny_cfg(scheduler={"kind": "fixed"}, max_epochs=8), seed=2)
        assert {r.learning_rate for r in res.records} == {0.1}
        assert res.stop_epoch is None
        assert res.final.epoch == 8

    def test_determinism_excluding_wall_seconds(self):
        cfg = tiny_cfg(max_epochs=10)
        a = run_training(cfg, seed=3)
        b = run_training(cfg, seed=3)
        strip = lambda text: [",".join(line.split(",")[:-1])
                              for line in text.splitlines()]
        assert strip(records_to_csv(a.records)) == strip(records_to_csv(b.records))

    def test_decision_column_replays_through_controller(self):
        cfg = tiny_cfg(max_epochs=60)
        res = run_training(cfg, seed=4)
        replayed = replay_neve_decisions(res.velocity_series["noise"],
                                         cfg.scheduler_config(), cfg.optimizer.lr)
        assert [d.verdict for d in replayed] == [r.decision for r in res.records]

    def test_lr_column_is_alpha_power(self):
        # overlapping classes + high lr keep SGD noise alive, so the
        # velocity plateaus and the controller actually rescales
        cfg = tiny_cfg(dataset={"name": "blobs", "n_samples": 300, "n_classes": 3,
                                "sigma": 1.2},
                       optimizer={"kind": "sgd", "lr": 0.5, "momentum": 0.9,
                                  "weight_decay": 1e-4},
                       batch_size=16, max_epochs=40,
                       scheduler={"kind": "neve", "epsilon": 1e-7, "patience": 2,
                                  "plateau_rel_span": 0.5, "cooldown": 2})
        res = run_training(cfg, seed=5)
        k = 0
        for r in res.records:
            if r.decision == "rescale":
                k += 1
            assert r.learning_rate == pytest.approx(0.1 ** k * 0.5, rel=1e-12)
        assert k >= 1

    def test_val_loss_recorded_with_split(self):
        cfg = tiny_cfg(dataset={"name": "blobs", "n_samples": 300, "n_classes": 3,
                                "validation_fraction": 0.2},
                       scheduler={"kind": "vloss"}, max_epochs=6)
        res = run_training(cfg, seed=6)
        assert all(r.val_loss is not None for r in res.records)

    def test_multi_aux_sources_tracked(self):
        cfg = tiny_cfg(dataset={"name": "blobs", "n_samples": 300, "n_classes": 3,
                                "validation_fraction": 0.2},
                       scheduler={"kind": "fixed"}, probe_aux=["heldout", "train"],
                       max_epochs=5)
        res = run_training(cfg, seed=7)
        assert set(res.velocity_series) == {"noise", "heldout", "train"}
        assert all(len(v) == 5 for v in res.velocity_series.values())

    def test_probes_disabled_leaves_velocity_empty(self):
        cfg = tiny_cfg(scheduler={"kind": "fixed"}, probe_velocity=False,
                       max_epochs=3)
        res = run_training(cfg, seed=8)
        assert res.velocity_series == {}
        assert all(r.model_velocity is None for r in res.records)
        line = records_to_csv(res.records).splitlines()[1]
        assert line.split(",")[6] == ""

    def test_aux_set_frozen_across_run(self):
        # drive the probe/train cycle by hand and hash the aux set each epoch
        from neve.data import gen_blobs
        from neve.engine import Optimizer, OptimizerSpec, backward_and_step
        from neve.experiment.runner import build_aux_sets, load_dataset, _snapshot
        from neve.engine import build_model
        cfg = tiny_cfg()
        train, _ = load_dataset(cfg.dataset)
        aux = build_aux_sets(cfg, train, gen_blobs(10, 2, seed=0))["noise"]
        model = build_model(cfg.arch, seed=1, input_shape=train.input_shape)
        opt = Optimizer(OptimizerSpec(lr=0.1, momentum=0.0, weight_decay=0.0))
        h0 = aux.content_hash()
        for epoch in range(3):
            backward_and_step(model, train.samples[:64], train.labels[:64], opt)
            _snapshot(model, aux, epoch)
            assert aux.content_hash() == h0

    @pytest.mark.parametrize("train_classes,test_classes,head", [
        (4, 3, 4),     # the test file lacks the top class
        (3, 4, 3),     # a test label at the head width
        (4, 4, 3)])    # both files exceed the head
    def test_idx_class_counts_checked_before_training(self, tmp_path, train_classes,
                                                      test_classes, head):
        rng = np.random.default_rng(0)
        paths = {}
        for split, classes in (("train", train_classes), ("test", test_classes)):
            labels = np.arange(12) % classes
            ds = Dataset(split, rng.random((12, 1, 4, 4)), labels, classes)
            paths[split] = (tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx")
            write_idx(ds, *paths[split])
        cfg = tiny_cfg(
            dataset={"name": "idx", "train_images": str(paths["train"][0]),
                     "train_labels": str(paths["train"][1]),
                     "test_images": str(paths["test"][0]),
                     "test_labels": str(paths["test"][1])},
            arch=f"mlp:16-8-{head}", scheduler={"kind": "fixed"}, max_epochs=2)
        with pytest.raises(ConfigError) as exc:
            run_training(cfg, seed=1)
        assert str(paths["train"][1]) in str(exc.value)
        assert str(paths["test"][1]) in str(exc.value)

    def test_augmented_run_reproduces_itself_and_differs_from_plain(self):
        cfg = tiny_cfg(dataset={"name": "digits", "n_samples": 100, "test_samples": 50,
                                "augment": "pad_crop_flip"},
                       arch="mlp:784-16-10", scheduler={"kind": "fixed"}, max_epochs=2)
        strip = lambda res: [dataclasses.replace(r, wall_seconds=0.0) for r in res.records]
        first, again = run_training(cfg, seed=2), run_training(cfg, seed=2)
        plain = run_training(dataclasses.replace(
            cfg, dataset=dataclasses.replace(cfg.dataset, augment="none")), seed=2)
        assert strip(first) == strip(again)
        assert [r.train_loss for r in first.records] != [r.train_loss for r in plain.records]

    def test_subset_and_normalize_run(self):
        cfg = tiny_cfg(dataset={"name": "digits", "n_samples": 200, "test_samples": 50,
                                "subset": 100, "normalize": True},
                       arch="mlp:784-16-10", scheduler={"kind": "fixed"}, max_epochs=2)
        train, test = load_dataset(cfg.dataset)
        assert len(train) == 100 and len(test) == 50
        assert np.bincount(train.labels).tolist() == [10] * 10
        assert train.samples.mean() == pytest.approx(0.0, abs=1e-12)
        assert train.samples.std() == pytest.approx(1.0)
        res = run_training(cfg, seed=1)
        assert not res.failed and len(res.records) == 2

    def test_velocity_dump_schema(self, tmp_path):
        cfg = tiny_cfg(max_epochs=3, scheduler={"kind": "fixed"})
        run_training(cfg, seed=1, dump_dir=tmp_path)
        files = sorted(tmp_path.glob("velocity_epoch*.csv"))
        assert len(files) == 3
        header, *rows = files[0].read_text().splitlines()
        assert header == "neuron_id,rho,v"
        assert len(rows) == 16 + 3  # hidden relu + softmax head

    def test_failed_evaluation_commits_no_velocity(self, tmp_path, monkeypatch):
        # the first evaluation of epoch 4 raises: epochs 1-3 stay whole
        calls = []

        def failing_evaluate(*args, **kwargs):
            calls.append(1)
            if len(calls) == 7:     # two evaluations (train, test) per epoch
                raise NumericError("injected")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(runner, "evaluate", failing_evaluate)
        cfg = tiny_cfg(max_epochs=6, scheduler={"kind": "fixed"}, probe_aux=["train"])
        res = run_training(cfg, seed=1, dump_dir=tmp_path)
        assert res.failed and res.error == "injected"
        assert [r.epoch for r in res.records] == [1, 2, 3]
        assert {src: len(v) for src, v in res.velocity_series.items()} == {"noise": 3,
                                                                            "train": 3}
        assert len(list(tmp_path.glob("velocity_epoch*.csv"))) == 3


class TestDatasetCache:
    def test_fields_read_after_loading_share_the_pair(self):
        spec = tiny_cfg().dataset
        train, test = load_dataset(spec)
        for other in (dataclasses.replace(spec, validation_fraction=0.3),
                      dataclasses.replace(spec, augment="pad_crop_flip")):
            again = load_dataset(other)
            assert again[0] is train and again[1] is test

    @pytest.mark.parametrize("change", [{"data_seed": 5}, {"n_samples": 240}])
    def test_data_fields_build_a_new_pair(self, change):
        spec = tiny_cfg().dataset
        train, _ = load_dataset(spec)
        other, _ = load_dataset(dataclasses.replace(spec, **change))
        assert other is not train
        assert not np.array_equal(other.samples[:len(train)], train.samples[:len(other)])
        assert load_dataset(spec)[0] is not train       # one entry: the first pair is gone

    def test_arrays_read_only(self):
        train, test = load_dataset(tiny_cfg().dataset)
        for arr in (train.samples, train.labels, test.samples, test.labels):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_rewritten_idx_files_reloaded(self, tmp_path):
        paths = [tmp_path / name for name in
                 ("train-images", "train-labels", "test-images", "test-labels")]
        images = np.random.default_rng(0).random((12, 1, 4, 4))
        for shift in (0, 1):
            labels = (np.arange(12) + shift) % 3
            write_idx(Dataset("train", images, labels, 3), *paths[:2])
            write_idx(Dataset("test", images, labels, 3), *paths[2:])
            if shift:
                # same sizes; move the times on, as a write on a coarse clock may not
                for path in paths:
                    st = os.stat(path)
                    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            # a spec checks that its files exist, so it is built after they are written;
            # both passes build equal specs, so only the files' stats tell them apart
            spec = dataclasses.replace(tiny_cfg().dataset, name="idx", **{
                key: str(path) for key, path in zip(
                    ("train_images", "train_labels", "test_images", "test_labels"), paths)})
            train, test = load_dataset(spec)
            assert np.array_equal(train.labels, labels)
            assert np.array_equal(test.labels, labels)

    def test_cold_and_warm_cache_runs_agree(self):
        cfg = tiny_cfg(dataset={"name": "blobs", "n_samples": 300, "n_classes": 3,
                                "validation_fraction": 0.2},
                       scheduler={"kind": "vloss"}, max_epochs=6)
        load_dataset(dataclasses.replace(cfg.dataset, data_seed=99))    # evict cfg's pair
        cold = run_training(cfg, seed=3)
        warm = run_training(cfg, seed=3)
        strip = lambda res: [dataclasses.replace(r, wall_seconds=0.0) for r in res.records]
        assert strip(cold) == strip(warm)
        assert cold.velocity_series == warm.velocity_series


def write_cifar(path, labels, seed):
    """A CIFAR-10 batch file: one 3073-byte record per label."""
    pixels = np.random.default_rng(seed).integers(0, 256, size=(len(labels), 3072))
    path.write_bytes(np.column_stack([labels, pixels]).astype(np.uint8).tobytes())
    return pixels.reshape(-1, 3, 32, 32) / 255.0


class TestCifarDataset:
    @pytest.mark.parametrize("with_test", [True, False])
    def test_loads_record_files(self, tmp_path, with_test):
        labels = np.arange(40) % 10
        train_px = np.concatenate([write_cifar(tmp_path / "data_batch_1.bin", labels[:20], 0),
                                   write_cifar(tmp_path / "data_batch_2.bin", labels[20:], 1)])
        test_px = write_cifar(tmp_path / "test_batch.bin", labels[:10], 2)
        spec = dataclasses.replace(
            tiny_cfg().dataset, name="cifar10",
            cifar_train_paths=(str(tmp_path / "data_batch_1.bin"),
                               str(tmp_path / "data_batch_2.bin")),
            cifar_test_paths=(str(tmp_path / "test_batch.bin"),) if with_test else ())
        train, test = load_dataset(spec)
        assert train.input_shape == (3, 32, 32) and train.n_classes == test.n_classes == 10
        if with_test:
            assert np.array_equal(train.samples, train_px)
            assert np.array_equal(train.labels, labels)
            assert np.array_equal(test.samples, test_px)
        else:
            # a stratified tenth of the train files is held out as the test split
            assert (len(train), len(test)) == (36, 4)
            rows = {row.tobytes(): i for i, row in enumerate(train_px)}
            picked = [rows[row.tobytes()] for row in (*train.samples, *test.samples)]
            assert sorted(picked) == list(range(40))
            assert np.array_equal(np.concatenate([train.labels, test.labels]),
                                  labels[picked])


class TestSuite:
    def test_single_seed_std_zero(self):
        result = run_training(tiny_cfg(max_epochs=5, scheduler={"kind": "fixed"}), seed=1)
        summary = summarize_results("fixed", (1,), [result])
        assert summary.test_accs == (result.final.test_acc,)
        assert summary.std_acc == 0.0
        assert summary.std_stop == 0.0

    def test_population_std_arithmetic(self):
        def fake(acc):
            rec = RunRecord(epoch=3, train_loss=0.1, train_acc=1.0, test_loss=0.1,
                            test_acc=acc, val_loss=None, model_velocity=None,
                            learning_rate=0.1, decision="continue", wall_seconds=0.0)
            return RunResult(seed=0, records=[rec], decisions=[], velocity_series={},
                             primary_source=None, stop_epoch=None)
        summary = summarize_results("x", (1, 2, 3),
                                    [fake(0.90), fake(0.92), fake(0.94)])
        assert summary.mean_acc == pytest.approx(0.92, abs=1e-12)
        assert summary.std_acc == pytest.approx(0.016329931618554536, rel=1e-9)

    def test_failed_seed_excluded_with_warning(self):
        def fake(failed):
            if failed:
                return RunResult(seed=0, records=[], decisions=[], velocity_series={},
                                 primary_source=None, stop_epoch=None, failed=True,
                                 error="boom")
            rec = RunRecord(epoch=1, train_loss=0.1, train_acc=1.0, test_loss=0.1,
                            test_acc=0.5, val_loss=None, model_velocity=None,
                            learning_rate=0.1, decision="continue", wall_seconds=0.0)
            return RunResult(seed=0, records=[rec], decisions=[], velocity_series={},
                             primary_source=None, stop_epoch=None)
        with pytest.warns(UserWarning, match="seed 2 failed"):
            summary = summarize_results("x", (1, 2), [fake(False), fake(True)])
        assert summary.failures == ((2, "boom"),)
        assert summary.test_accs == (0.5,)


# each kind with settings that make it rescale (and stop, where it can) within 30 epochs
REPLAY_SCHEDULERS = {
    "neve": {"kind": "neve", "epsilon": 0.02, "patience": 2, "plateau_rel_span": 0.5,
             "cooldown": 2},
    "fixed": {"kind": "fixed"},
    "step_decay": {"kind": "step_decay"},
    "vloss": {"kind": "vloss", "vloss_patience": 2, "stop_patience": 4},
}


@pytest.fixture(scope="module", params=sorted(REPLAY_SCHEDULERS))
def recorded_run(request):
    """(config, result, signal series) of one recorded run per scheduler kind."""
    kind = request.param
    cfg = tiny_cfg(dataset={"name": "blobs", "n_samples": 300, "n_classes": 3, "sigma": 1.2,
                            "validation_fraction": 0.2},
                   optimizer={"kind": "sgd", "lr": 0.5, "momentum": 0.9,
                              "weight_decay": 1e-4},
                   batch_size=16, max_epochs=30, scheduler=REPLAY_SCHEDULERS[kind])
    res = run_training(cfg, seed=5)
    signals = [r.model_velocity if kind == "neve" else r.val_loss for r in res.records]
    return cfg, res, signals


class TestReadme:
    def test_library_snippet_runs(self, tmp_path):
        # the README's one python block shows the library surface; it must run as written
        root = Path(__file__).resolve().parents[1]
        (snippet,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
        proc = subprocess.run([sys.executable, "-c", snippet], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestReplay:
    def test_replay_reproduces_every_decision(self, recorded_run):
        cfg, res, signals = recorded_run
        replayed = replay_neve_decisions(signals, cfg.scheduler_config(), cfg.optimizer.lr)
        assert replayed == res.decisions      # verdict, epoch, reason and new_lr
        verdicts = {d.verdict for d in res.decisions}
        assert "rescale" in verdicts or cfg.scheduler.kind == "fixed"
        assert ("stop" in verdicts) == (cfg.scheduler.kind in ("neve", "vloss"))

    def test_split_fold_matches_one_fold(self, recorded_run):
        # fold series[:k], rebuild the state from its fields, fold the rest:
        # the decisions of one fold, so a run can resume from a saved state
        cfg, res, signals = recorded_run
        sched = cfg.scheduler_config()

        def fold(state, lr, series):
            decisions = []
            for signal in series:
                state, d = neve_decide(sched, state, signal, lr)
                decisions.append(d)
                lr = d.new_lr if d.verdict == "rescale" else lr
            return state, lr, decisions

        for k in np.random.default_rng(11).integers(0, len(signals) + 1, size=8):
            state, lr, head = fold(SchedulerState(), cfg.optimizer.lr, signals[:k])
            saved = SchedulerState(**state._asdict())
            _, _, tail = fold(saved, lr, signals[k:])
            assert head + tail == res.decisions


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == ("epoch,train_loss,train_acc,test_loss,test_acc,"
                              "val_loss,model_velocity,learning_rate,decision,"
                              "wall_seconds")

    def test_row_count_and_empty_val(self):
        res = run_training(tiny_cfg(max_epochs=3, scheduler={"kind": "fixed"}), seed=1)
        lines = records_to_csv(res.records).splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER
        for line in lines[1:]:
            assert line.split(",")[5] == ""  # no validation split

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError):
            records_to_csv([])


class TestPlots:
    def test_emit_plots_marks_stop_epoch(self, tmp_path):
        res = run_training(tiny_cfg(max_epochs=60), seed=1)
        from neve.experiment import emit_plots
        written = emit_plots(res, tmp_path)
        assert [p.name for p in written] == ["velocity.svg", "loss.svg"]
        for p in written:
            assert f"stop @ {res.stop_epoch}" in p.read_text()

    def test_emit_plots_returns_only_written_charts(self, tmp_path):
        from neve.experiment import emit_plots
        record = RunRecord(1, 0.5, 0.5, 0.5, 0.5, None, 0.0, 0.1, "stop", 0.0)
        res = RunResult(1, [record], [], {"noise": [0.0]}, "noise", 1)
        assert [p.name for p in emit_plots(res, tmp_path)] == ["loss.svg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.svg"]


class TestSvg:
    def test_stop_marker_annotated(self, tmp_path):
        p = tmp_path / "c.svg"
        line_chart(p, [("loss", [1, 2, 3], [0.5, 0.3, 0.2])],
                   vlines=((42, "stop @ 42"),), xlabel="epoch", ylabel="loss")
        text = p.read_text()
        assert "stop @ 42" in text
        assert "polyline" in text
        assert "epoch" in text and "loss" in text

    def test_well_formed_xml(self, tmp_path):
        import xml.dom.minidom
        p = tmp_path / "c.svg"
        line_chart(p, [("a", [1, 2], [1.0, 2.0]), ("b", [1, 2], [2.0, 1.0])],
                   title="t", log_y=True)
        xml.dom.minidom.parse(str(p))

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            line_chart(tmp_path / "c.svg", [("a", [], [])])

    def test_non_finite_points_left_out(self, tmp_path):
        p = tmp_path / "c.svg"
        line_chart(p, [("a", [1, 2, 3], [0.5, float("nan"), 0.2]),
                       ("b", [1, 2], [float("inf"), 0.3])], log_x=True)
        xml.dom.minidom.parse(str(p))
        assert "nan" not in p.read_text() and "inf" not in p.read_text()
        assert not line_chart(tmp_path / "none.svg", [("a", [1, 2], [float("nan")] * 2)])
        assert not (tmp_path / "none.svg").exists()
        # on a log axis, so are points at or below 0
        assert not line_chart(tmp_path / "zero.svg", [("a", [1, 2], [0.0, -1.0])], log_y=True)
        assert not (tmp_path / "zero.svg").exists()


class TestCli:
    def test_epsilon_analysis_prints_reference_value(self, capsys):
        assert main(["epsilon-analysis", "--eps", "1e-3"]) == 0
        out = capsys.readouterr().out
        value = float(out.strip().splitlines()[-1].split()[-1])
        assert 3.6e-4 <= value <= 3.8e-4

    def test_missing_dataset_path_names_field(self, capsys):
        code = main(["train", "--dataset", "idx", "--seeds", "1"])
        assert code == 2
        assert "dataset.train_images" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code != 0

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--frobnicate"])
        assert exc.value.code != 0

    def test_train_writes_artifacts(self, tmp_path, capsys):
        code = main(["train", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--scheduler", "fixed",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run_seed1.csv").exists()
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "summary.csv").exists()
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["scheduler"]["kind"] == "fixed"

    def test_failed_seed_reported_and_summary_written(self, tmp_path, capsys):
        # lr 1e300 overflows the weights in the first epoch: a NumericError run
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match="seed 1 failed"):
            code = main(["train", *TINY_CLI, "--lr", "1e300", "--max-epochs", "3",
                         "--out", str(tmp_path)])
        assert code == 0
        assert "  seed 1: FAILED (non-finite" in capsys.readouterr().out
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        assert row.startswith("neve,nan,nan,nan,nan,")

    @pytest.mark.parametrize("argv", [
        ["compare"], ["epsilon-sweep", "--eps-grid", "1e-3,1e-2"], ["aux-sweep"],
        ["optim-compare"],                          # the Adam runs keep their own lr
        ["optim-compare", "--adam-lr", "1e200"]])
    def test_sweep_with_failed_variants_exits_0(self, argv, tmp_path, capsys):
        # lr 1e200 overflows the weights in the first epoch: every seed of a variant fails
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match="failed"):
            code = main(argv + TINY_CLI + ["--lr", "1e200", "--max-epochs", "2",
                                           "--out", str(tmp_path)])
        assert code == 0
        assert "FAILED" in capsys.readouterr().out
        for svg in tmp_path.glob("*.svg"):
            assert "nan" not in svg.read_text()
            xml.dom.minidom.parse(str(svg))

    def test_compare_lists_one_row_per_scheduler(self, tmp_path, capsys):
        code = main(["compare", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for label in ("neve", "fixed", "step_decay", "vloss"):
            assert label in out
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 schedulers

    def test_epsilon_sweep_writes_curves(self, tmp_path, capsys):
        code = main(["epsilon-sweep", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "6", "--eps-grid", "1e-2,1e-1",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "epsilon_stop_epochs.svg").exists()
        assert (tmp_path / "epsilon_accuracy.svg").exists()
        assert (tmp_path / "epsilon_sweep.csv").exists()
        assert (tmp_path / "run_eps-0.01_seed1.csv").exists()
        assert (tmp_path / "loss_eps-0.1_seed1.svg").exists()

    def test_aux_sweep_writes_curves(self, tmp_path, capsys):
        code = main(["aux-sweep", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--val-fracs", "0,0.2",
                     "--aux-sizes", "5,20", "--aux-sources", "noise",
                     "--dump-velocity", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "accuracy_vs_val_fraction.svg").exists()
        assert (tmp_path / "accuracy_vs_aux_size.svg").exists()
        assert (tmp_path / "run_val-0.2_seed1.csv").exists()
        assert (tmp_path / "run_noise-20_seed1.csv").exists()
        # the probe-free val= variants dump nothing; the probed ones dump every epoch
        assert sorted(p.name for p in tmp_path.glob("velocity_*_seed1")) == [
            "velocity_noise-20_seed1", "velocity_noise-5_seed1"]

    def test_optim_compare_runs_both_optimizers(self, tmp_path, capsys):
        code = main(["optim-compare", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sgd/neve" in out and "adam/neve" in out
        assert (tmp_path / "optim_compare.csv").exists()
        assert (tmp_path / "run_adam-fixed_seed1.csv").exists()

    def test_epsilon_analysis_table_is_two_columns(self, capsys):
        assert main(["epsilon-analysis", "--eps-grid", "1e-3,1e-2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["epsilon", "max_delta"]
        assert len(lines) == 4  # header, rule, two rows

    def test_epsilon_analysis_svg(self, tmp_path):
        svg = tmp_path / "eps.svg"
        assert main(["epsilon-analysis", "--eps", "1e-3", "--svg", str(svg)]) == 0
        assert svg.exists() and "polyline" in svg.read_text()

    @pytest.mark.parametrize("argv,flag", [
        (["--eps", "1e-3", "--svg", "missing-dir/x.svg"], "--svg"),
        (["--eps-grid", "1e-3,nan"], "--eps-grid"), (["--eps-grid", ","], "--eps-grid")])
    def test_epsilon_analysis_bad_value_exits_2_naming_flag(self, argv, flag, tmp_path,
                                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["epsilon-analysis", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""           # checked before any work
        assert list(tmp_path.iterdir()) == []

    def test_run_without_positive_velocity_completes(self, tmp_path):
        # frozen weights and one aux sample: every velocity is exactly 0
        assert main(["train", *TINY_CLI, "--lr", "0", "--aux-count", "1", "--max-epochs", "2",
                     "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "loss_seed1.svg", "run_seed1.csv", "summary.csv"]

    def test_out_dir_env_honored_and_flag_wins(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        flag_dir = tmp_path / "from-flag"
        monkeypatch.setenv("NEVE_OUT_DIR", str(env_dir))
        args = ["train", "--dataset", "blobs", "--n-samples", "120",
                "--n-classes", "3", "--arch", "mlp:2-4-3", "--seeds", "1",
                "--max-epochs", "2", "--scheduler", "fixed"]
        assert main(args) == 0
        assert (env_dir / "run_seed1.csv").exists()
        assert main(args + ["--out", str(flag_dir)]) == 0
        assert (flag_dir / "run_seed1.csv").exists()

    @pytest.mark.parametrize("argv,key", [
        (["compare", "--vloss-fraction", "0"], "dataset.validation_fraction"),
        (["epsilon-sweep", "--eps-grid", "1e-2,-1"], "scheduler.epsilon"),
        (["aux-sweep", "--aux-sources", "noise,bogus"], "aux.source"),
        (["aux-sweep", "--aux-sizes", "0"], "aux.count"),
        (["optim-compare", "--adam-lr", "-1"], "optimizer.lr"),
        (["epsilon-sweep", "--eps-grid", ","], "epsilon-sweep: no variants"),
        (["train", "--momentum", "-1.5"], "optimizer.momentum"),
        (["train", "--momentum", "1"], "optimizer.momentum"),
        (["train", "--weight-decay", "-5"], "optimizer.weight_decay"),
        # Adam's constants and the split seed are no config fields
        (["train", {"optimizer": {"kind": "adam", "betas": [0.9, 0.999]}}],
         "unknown config field 'optimizer.betas'"),
        (["train", {"optimizer": {"eps": 1e-8}}], "unknown config field 'optimizer.eps'"),
        (["train", {"dataset": {"split_seed": 0}}], "unknown config field 'dataset.split_seed'"),
        (["train", "--seeds", "3,3"], "seeds"),
        (["compare", "--seeds", "1,2,1"], "seeds"),
        # a config file's values must fit their fields' types
        (["train", {"max_epochs": "5"}], "max_epochs"),
        (["train", {"max_epochs": True}], "max_epochs"),
        (["train", {"batch_size": 2.5}], "batch_size"),
        (["train", {"seeds": [1.5]}], "seeds"),
        (["train", {"aux": {"count": True}}], "aux.count"),
        (["train", {"optimizer": {"lr": False}}], "optimizer.lr"),
        (["train", {"optimizer": {"kind": 1}}], "optimizer.kind"),
        (["train", {"scheduler": {"cooldown": 1.5}}], "scheduler.cooldown"),
        (["train", {"scheduler": {"milestones": "3,5"}}], "scheduler.milestones"),
        (["train", {"probe_aux": "noise"}], "probe_aux"),
        (["train", {"probe_velocity": 1}], "probe_velocity"),
        (["train", {"dataset": {"train_images": 5}}], "dataset.train_images"),
        (["train", {"dataset": {"cifar_train_paths": [1]}}], "dataset.cifar_train_paths"),
        # NaN, inf and negative values from a sweep grid or a config file
        (["epsilon-sweep", "--eps-grid", "nan"], "scheduler.epsilon"),
        (["optim-compare", "--adam-lr", "nan"], "optimizer.lr"),
        (["compare", "--vloss-fraction", "nan"], "dataset.validation_fraction"),
        (["aux-sweep", "--val-fracs", "0,inf"], "dataset.validation_fraction"),
        (["train", {"scheduler": {"min_lr": -1.0}}], "scheduler.min_lr"),
        (["train", {"scheduler": {"min_lr": float("nan")}}], "scheduler.min_lr"),
        # a flag can make a valid file invalid; a flag does not excuse a mistyped file value
        (["train", "--val-fraction", "0",
          {"scheduler": {"kind": "vloss"}, "dataset": {"validation_fraction": 0.3}}],
         "dataset.validation_fraction"),
        (["train", "--lr", "0.1", {"optimizer": {"lr": "0.1"}}], "optimizer.lr"),
        # a velocity dump needs the probes
        (["train", "--scheduler", "fixed", "--no-probe", "--dump-velocity"],
         "dump_velocity requires probe_velocity"),
        (["train", "--dump-velocity", {"scheduler": {"kind": "fixed"}, "probe_velocity": False}],
         "dump_velocity requires probe_velocity")])
    def test_subcommand_value_checked_before_output(self, argv, key, tmp_path, capsys):
        if isinstance(argv[-1], dict):          # the content of a config file
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], "--config", str(conf)]
        out = tmp_path / "out"
        # the case's own flags come last, so they win over TINY_CLI's
        assert main(argv[:1] + TINY_CLI + argv[1:] + ["--max-epochs", "2",
                                                      "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw,flags", [
        ({"scheduler": {"kind": "vloss"}}, ["--val-fraction", "0.3"]),
        ({"probe_velocity": False}, ["--scheduler", "fixed"]),
        ({"dataset": {"name": "idx"}}, "idx paths")])
    def test_flags_complete_a_config_file(self, raw, flags, tmp_path):
        # each file alone is invalid; the merged config is checked once
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(raw))
        if flags == "idx paths":
            flags = ["--arch", "mlp:16-2"]
            for part in ("train", "test"):
                images, labels = tmp_path / f"{part}-images", tmp_path / f"{part}-labels"
                write_idx(Dataset(part, np.zeros((10, 1, 4, 4)), np.arange(10) % 2, 2),
                          images, labels)
                flags += [f"--{part}-images", str(images), f"--{part}-labels", str(labels)]
        else:
            flags = [*TINY_CLI, *flags]
        with pytest.raises(ConfigError):
            config_from_file(conf)
        out = tmp_path / "out"
        assert main(["train", "--config", str(conf), *flags, "--max-epochs", "2",
                     "--out", str(out)]) == 0
        assert (out / "run_seed1.csv").exists()

    @pytest.mark.parametrize("argv", [["epsilon-sweep", "--eps-grid", "1e-3,0.001"],
                                      ["aux-sweep", "--aux-sizes", "10,10"]])
    def test_variants_sharing_a_tag_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + TINY_CLI + ["--max-epochs", "2", "--out", str(out)]) == 2
        assert "tag" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_dumps_velocity(self, tmp_path):
        assert main(["compare", *TINY_CLI, "--max-epochs", "3", "--dump-velocity",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "run_neve-0-val_seed1.csv").read_text().splitlines()[1:]
        dumps = sorted(p.name for p in (tmp_path / "velocity_neve-0-val_seed1").iterdir())
        assert dumps == [f"velocity_epoch{e:04d}.csv" for e in range(1, len(rows) + 1)]

    def test_per_run_records_match_direct_runs(self, tmp_path):
        flags = [*TINY_CLI, "--max-epochs", "5"]
        assert main(["compare", *flags, "--out", str(tmp_path / "compare")]) == 0
        assert main(["train", *flags, "--scheduler", "vloss", "--val-fraction", "0.3",
                     "--dump-velocity", "--out", str(tmp_path / "train")]) == 0

        def without_wall_seconds(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        assert (without_wall_seconds(tmp_path / "compare" / "run_vloss-30-val_seed1.csv")
                == without_wall_seconds(tmp_path / "train" / "run_seed1.csv"))
        assert sorted(p.name for p in (tmp_path / "train").iterdir()) == [
            "config.json", "loss_seed1.svg", "run_seed1.csv", "summary.csv",
            "velocity_seed1", "velocity_seed1.svg"]


REPO = Path(__file__).resolve().parents[1]

# a valid non-default command-line value per field, and its parsed value;
# int and float fields not listed take 7 and 0.375
FLAG_SAMPLES = {
    "seeds": ("3,4", (3, 4)), "arch": ("mlp:2-8-4", "mlp:2-8-4"),
    "dataset.name": ("digits", "digits"), "dataset.subset": ("7", 7),
    "dataset.augment": ("pad_crop_flip", "pad_crop_flip"),
    "dataset.train_images": ("a", "a"), "dataset.train_labels": ("b", "b"),
    "dataset.test_images": ("c", "c"), "dataset.test_labels": ("d", "d"),
    "optimizer.kind": ("adam", "adam"), "scheduler.kind": ("step_decay", "step_decay"),
    "scheduler.cooldown": ("7", 7), "scheduler.milestones": ("3,4", (3, 4)),
    "aux.source": ("train", "train"), "probe_aux": ("noise, train", ("noise", "train")),
}


def _field(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


def _readme_commands():
    """argv (without `neve`) of every command in the README's sh blocks."""
    text = (REPO / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "neve":
                commands.append(argv[1:])
    return commands


def _load(relative: str):
    """A module of the repository that is not on the import path."""
    path = REPO / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_untrained(argv, monkeypatch) -> int:
    """``main(argv)`` with every run failing at once, so nothing trains but
    everything before the runs (configs, refusals, data checks) happens."""
    monkeypatch.setattr("neve.experiment.cli.run_training", lambda cfg, seed, dump_dir=None:
                        RunResult(seed, [], [], {}, None, None, failed=True, error="untrained"))
    return main(argv)


# the flags each sweep refuses: every one of its variants sets the flag's key
REFUSED = {"train": set(), "compare": {"--scheduler", "--val-fraction"},
           "epsilon-sweep": {"--scheduler", "--epsilon"}, "aux-sweep": {"--scheduler"},
           "optim-compare": {"--optimizer", "--scheduler"}}


class TestFlags:
    @pytest.mark.parametrize("flag,key", sorted(FLAGS.items()))
    def test_flag_sets_its_config_field(self, flag, key):
        default = _field(ExperimentConfig(), key)
        base = ["train", "--scheduler", "fixed"]   # fixed: --no-probe is valid
        if isinstance(default, bool):
            argv, expected = [flag], not default
        else:
            samples = {int: ("7", 7), float: ("0.375", 0.375)}
            text, expected = FLAG_SAMPLES.get(key) or samples[type(default)]
            argv = [flag, text]
        assert expected != default
        cfg = resolve_config(build_parser().parse_args(base + argv))
        assert _field(cfg, key) == expected

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("flag,key,value", [
        (flag, key, value) for flag, key in sorted(FLAGS.items())
        for value in {float: ("nan", "inf", "-inf", "-1"),
                      int: ("-1",)}.get(_item_type(_field_hint(key)), ())])
    def test_nan_inf_and_negative_values_exit_2_naming_field(self, flag, key, value, via,
                                                             tmp_path, capsys):
        argv = [f"{flag}={value}"]
        if via == "file":       # json writes NaN, Infinity and -Infinity
            hint = _field_hint(key)
            item = _item_type(hint)(float(value))
            raw = [item] if get_origin(hint) is tuple else item
            for part in reversed(key.split(".")):
                raw = {part: raw}
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps(raw))
            argv = ["--config", str(conf)]
        out = tmp_path / "out"
        assert main(["train", *argv, "--out", str(out)]) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,key", [
        ("--dataset", "dataset.name"), ("--optimizer", "optimizer.kind"),
        ("--scheduler", "scheduler.kind"), ("--aux-source", "aux.source"),
        ("--augment", "dataset.augment")])
    def test_invalid_value_exits_2_naming_field(self, flag, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", flag, "bogus", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,key", [
        ("--alpha", "1.5", "scheduler.alpha"), ("--epsilon", "0", "scheduler.epsilon"),
        ("--patience", "0", "scheduler.patience"),
        ("--rel-span", "1", "scheduler.plateau_rel_span"),
        ("--factor", "2", "scheduler.factor"), ("--milestones", "5,5", "scheduler.milestones"),
        ("--milestones", "0,3", "scheduler.milestones"),
        ("--vloss-patience", "0", "scheduler.vloss_patience"),
        ("--stop-patience", "0", "scheduler.stop_patience"),
        ("--mu-vel", "5", "scheduler.mu_vel"), ("--mu-vel", "-1", "scheduler.mu_vel"),
        ("--cooldown", "-3", "scheduler.cooldown")])
    def test_out_of_range_scheduler_value_exits_2_naming_field(self, flag, value, key,
                                                               tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", flag, value, "--out", str(out)]) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["--subset", "-5"], "dataset.subset"), (["--subset", "0"], "dataset.subset"),
        (["--n-samples", "3"], "dataset.n_samples"),
        (["--test-samples", "0"], "dataset.test_samples"),
        (["--n-classes", "0"], "dataset.n_classes"), (["--sigma", "0"], "dataset.sigma"),
        (["--dataset", "digits", "--n-samples", "9"], "dataset.n_samples"),
        (["--dataset", "digits", "--test-samples", "9"], "dataset.test_samples"),
        # checks that need the loaded data
        (["--augment", "pad_crop_flip", "--n-samples", "100", "--test-samples", "50"],
         "dataset.augment"),
        (["--scheduler", "vloss", "--val-fraction", "0.001", "--n-samples", "100"],
         "dataset.validation_fraction"),
        (["--aux-source", "heldout", "--val-fraction", "0.001", "--n-samples", "100"],
         "dataset.validation_fraction"),
        (["--scheduler", "vloss", "--val-fraction", "0.9", "--n-samples", "8",
          "--test-samples", "8"], "dataset.validation_fraction"),
        # the class count and spread are checked on every dataset
        (["--dataset", "digits", "--n-classes", "0"], "dataset.n_classes"),
        (["--dataset", "digits", "--sigma", "0"], "dataset.sigma")])
    def test_out_of_range_dataset_value_exits_2_naming_field(self, argv, key,
                                                             tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", *argv, "--out", str(out)]) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shift,ok", [(-1, False), (10, True), (11, False), (20, False)])
    def test_digits_shift_checked_before_output(self, shift, ok, tmp_path, capsys):
        conf = tmp_path / "shift.json"
        conf.write_text(json.dumps({"dataset": {"shift": shift}}))
        argv = ["train", "--config", str(conf), "--dataset", "digits"]
        if ok:
            assert resolve_config(build_parser().parse_args(argv)).dataset.shift == shift
            return
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "error: dataset.shift must lie in [0, 10]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset,arch,named", [
        ("digits", [{"kind": "conv", "out_channels": 4, "kernal": 3}],
         "arch[0]: conv layer has unknown key 'kernal'"),
        ("digits", [{"kind": "conv", "out_channels": 4}],
         "arch[0]: conv layer needs the key 'kernel'"),
        ("digits", [{"kind": "conv", "out_channels": 4, "kernel": 3, "stride": True}],
         "arch[0]: conv layer key 'stride' must be an integer, got True"),
        ("blobs", [{"kind": "dense"}], "arch[0]: dense layer needs the key 'out'"),
        ("blobs", [{"kind": "dense", "out": "x"}],
         "arch[0]: dense layer key 'out' must be an integer, got 'x'"),
        ("blobs", [{"kind": "dense", "out": 4.7}],
         "arch[0]: dense layer key 'out' must be an integer, got 4.7"),
        ("blobs", [{"kind": "dense", "out": 8}, {"kind": "relu", "bogus": 1},
                   {"kind": "dense", "out": 4}],
         "arch[1]: relu layer has unknown key 'bogus'"),
        ("blobs", [{"kind": "pool"}], "arch[0]: a layer is a dict whose 'kind' is "
                                      "one of dense, conv, relu, flatten, got {'kind': 'pool'}"),
        ("blobs", ["relu"], "arch[0]: a layer is a dict whose 'kind' is one of "
                            "dense, conv, relu, flatten, got 'relu'"),
        ("blobs", 5, "arch must be an 'mlp:IN-H1-...-OUT' string or a list of layer dicts"),
        ("blobs", {"kind": "dense", "out": 4}, "arch must be an 'mlp:IN-H1-...-OUT' string"),
        ("blobs", "mlp:2", "arch 'mlp:2' is not an 'mlp:IN-H1-...-OUT' shorthand"),
        ("blobs", "mlp:2-x-4", "arch 'mlp:2-x-4' is not an 'mlp:IN-H1-...-OUT' shorthand"),
        ("blobs", "cnn:2-4", "arch 'cnn:2-4' is not an 'mlp:IN-H1-...-OUT' shorthand"),
        ("blobs", "mlp:3-4", "mlp input width 3 does not match input shape (2,)")])
    def test_malformed_arch_exits_2_naming_layer_and_key(self, dataset, arch, named,
                                                         tmp_path, capsys):
        conf = tmp_path / "arch.json"
        conf.write_text(json.dumps({"arch": arch}))
        out = tmp_path / "out"
        assert main(["train", "--config", str(conf), "--dataset", dataset,
                     "--n-samples", "100", "--test-samples", "50", "--out", str(out)]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_aux_without_probing_exits_2_naming_both(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--scheduler", "fixed", "--no-probe", "--probe-aux", "train",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "probe_aux" in err and "probe_velocity" in err
        assert not out.exists()

    def test_class_count_mismatch_checked_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--n-classes", "6", "--arch", "mlp:2-8-4",
                     "--out", str(out)]) == 2
        assert ("the train split (blobs) has 6 classes and the test split (blobs) has 6; "
                "they must agree and fit the 4-way model head") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["train_images", "test_labels"])
    def test_missing_idx_file_exits_2_naming_field(self, missing, tmp_path, capsys):
        paths = {key: tmp_path / key for key in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        for part in ("train", "test"):
            write_idx(Dataset(part, np.zeros((10, 1, 4, 4)), np.arange(10) % 2, 2),
                      paths[f"{part}_images"], paths[f"{part}_labels"])
        paths[missing] = tmp_path / "nope" / "a"
        out = tmp_path / "out"
        argv = ["train", "--dataset", "idx", "--arch", "mlp:16-2", "--out", str(out)]
        for key, path in paths.items():
            argv += ["--" + key.replace("_", "-"), str(path)]
        assert main(argv) == 2
        assert f"error: dataset.{missing} " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cifar_file_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset.cifar_train_paths "):
            tiny_cfg(dataset={"name": "cifar10",
                              "cifar_train_paths": [str(tmp_path / "nope")]})
        batch = tmp_path / "data_batch_1.bin"
        batch.touch()
        with pytest.raises(ConfigError, match="dataset.cifar_test_paths "):
            tiny_cfg(dataset={"name": "cifar10", "cifar_train_paths": [str(batch)],
                              "cifar_test_paths": [str(tmp_path / "nope")]})

    @pytest.mark.parametrize("budget,decay_epochs", [(1, []), (2, [1]), (3, [1, 2]),
                                                     (4, [2, 3]), (9, [4, 6])])
    def test_step_decay_fallback_fits_any_budget(self, budget, decay_epochs, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--scheduler", "step_decay", "--max-epochs", str(budget),
                     "--n-samples", "60", "--test-samples", "30",
                     "--arch", "mlp:2-4-4", "--out", str(out)]) == 0
        rows = (out / "run_seed1.csv").read_text().splitlines()[1:]
        assert [i + 1 for i, row in enumerate(rows)
                if row.split(",")[8] == "rescale"] == decay_epochs

    def test_readme_flags_accepted(self, capsys):
        commands = _readme_commands()
        assert len(commands) >= 8
        for argv in commands:
            build_parser().parse_args(argv)
        # flags the prose names in backticks belong to `neve train`
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        train_help = capsys.readouterr().out
        prose = set(re.findall(r"`(--[a-z-]+)", (REPO / "README.md").read_text()))
        assert prose
        for flag in prose:
            assert re.search(rf"{flag}(?![\w-])", train_help), flag

    def test_help_shows_declared_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        train_help = " ".join(capsys.readouterr().out.split())
        for shown in ("--epsilon SCHEDULER.EPSILON in (0, inf)",
                      "--seeds SEEDS comma-separated, each in [0, inf)",
                      "--optimizer OPTIMIZER.KIND in {sgd, adam}"):
            assert shown in train_help

    @pytest.mark.parametrize("smoke", [False, True])
    @pytest.mark.filterwarnings("ignore:seed")
    def test_benchmark_workload_commands_resolve(self, smoke, tmp_path, monkeypatch):
        workloads = _load("perfbench/workloads.py")
        for name in workloads.WORKLOADS:
            out = tmp_path / name
            out.mkdir()
            assert _run_untrained(workloads.cli_args(name, 7, out, smoke), monkeypatch) == 0

    @pytest.mark.parametrize("builder", ["optim_compare_args", "aux_sweep_args",
                                         "conv_geometry_args", "data_paths_args"])
    @pytest.mark.filterwarnings("ignore:seed")
    def test_tool_commands_resolve(self, builder, tmp_path, monkeypatch):
        tool = _load("tools/run_workloads.py")
        assert _run_untrained(getattr(tool, builder)(7, tmp_path), monkeypatch) == 0

    @pytest.mark.parametrize("command", sorted(REFUSED))
    def test_sweep_refuses_exactly_the_keys_every_variant_sets(self, command, monkeypatch):
        def built(*_):
            raise LookupError("the refusal let the flags through")
        monkeypatch.setattr("neve.experiment.cli.config_from_dict", built)
        refused = set()
        for flag, key in FLAGS.items():
            args = build_parser().parse_args([command])
            setattr(args, key, "given")       # the refusal reads only whether a flag is given
            try:
                args.func(args)
            except ConfigError as exc:
                assert str(exc).startswith(f"{flag} is refused by {command}: ")
                refused.add(flag)
            except LookupError:
                pass
        assert refused == REFUSED[command]

    @pytest.mark.parametrize("command,flag", sorted(
        (command, flag) for command, flags in REFUSED.items() for flag in flags))
    def test_refused_flag_exits_2_before_output(self, command, flag, tmp_path, capsys):
        value = {"--scheduler": "vloss", "--val-fraction": "0.2", "--epsilon": "0.5",
                 "--optimizer": "adam"}[flag]
        out = tmp_path / "out"
        assert main([command, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} is refused by {command}: ")
        assert not out.exists()
