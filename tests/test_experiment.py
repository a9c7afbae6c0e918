"""Config, run-loop, CSV, SVG and CLI tests at desk scale.

The training runs here are deliberately tiny (hundreds of samples, tens
of epochs) so the whole module stays fast; the heavier end-to-end
behavior lives in the acceptance suite.
"""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from neve.controller import ControllerConfig
from neve.errors import ConfigError
from neve.experiment import (CSV_HEADER, RunRecord, config_from_dict,
                             config_from_file, line_chart, merge_overrides,
                             records_to_csv, replay_neve_decisions, run_suite,
                             run_training, summarize_results)
from neve.experiment import ExperimentConfig
from neve.experiment.cli import FLAGS, build_parser, main, resolve_config
from neve.experiment.runner import RunResult


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


class TestConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="velocity_threshold"):
            config_from_dict({"velocity_threshold": 1e-3})
        with pytest.raises(ConfigError, match="scheduler.epsilonn"):
            config_from_dict({"scheduler": {"epsilonn": 1e-3}})
        with pytest.raises(ConfigError, match="'dataset' must be a mapping"):
            config_from_dict({"dataset": 3})

    def test_vloss_requires_validation_split(self):
        with pytest.raises(ConfigError, match="validation_fraction"):
            tiny_cfg(scheduler={"kind": "vloss"})

    def test_heldout_aux_requires_validation_split(self):
        with pytest.raises(ConfigError, match="heldout"):
            tiny_cfg(aux={"source": "heldout"})

    def test_idx_paths_required(self):
        with pytest.raises(ConfigError, match="dataset.train_images"):
            tiny_cfg(dataset={"name": "idx"})

    def test_file_round_trip(self, tmp_path):
        # JSON turns every tuple into a list; loading turns them back,
        # except in arch, whose list of layer dicts stays a list
        conv = tiny_cfg(
            dataset={"name": "cifar10", "cifar_train_paths": ["b1.bin", "b2.bin"],
                     "validation_fraction": 0.2},
            arch=[{"kind": "conv", "out_channels": 4, "kernel": 3},
                  {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "out": 10}],
            optimizer={"kind": "adam", "betas": [0.8, 0.99]},
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
        with pytest.raises(ConfigError, match="scheduler.gamma"):
            merge_overrides(cfg, {"scheduler.gamma": 0.5})

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
        ctrl = ControllerConfig(epsilon=cfg.scheduler.epsilon, alpha=cfg.scheduler.alpha,
                                patience=cfg.scheduler.patience,
                                plateau_rel_span=cfg.scheduler.plateau_rel_span)
        replayed = replay_neve_decisions(res.velocity_series["noise"], ctrl,
                                         cfg.optimizer.lr)
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
        from neve.engine import Optimizer, backward_and_step
        from neve.experiment.runner import build_aux_sets, load_dataset, _snapshot
        from neve.engine import build_model
        cfg = tiny_cfg()
        train, _ = load_dataset(cfg.dataset)
        aux = build_aux_sets(cfg, train, gen_blobs(10, 2, seed=0))["noise"]
        model = build_model(cfg.arch, seed=1, input_shape=train.input_shape)
        opt = Optimizer(lr=0.1)
        h0 = aux.content_hash()
        for epoch in range(3):
            backward_and_step(model, train.samples[:64], train.labels[:64], opt)
            _snapshot(model, aux, epoch)
            assert aux.content_hash() == h0

    def test_velocity_dump_schema(self, tmp_path):
        cfg = tiny_cfg(max_epochs=3, scheduler={"kind": "fixed"})
        run_training(cfg, seed=1, dump_dir=tmp_path)
        files = sorted(tmp_path.glob("velocity_epoch*.csv"))
        assert len(files) == 3
        header, *rows = files[0].read_text().splitlines()
        assert header == "neuron_id,rho,v"
        assert len(rows) == 16 + 3  # hidden relu + softmax head


class TestSuite:
    def test_single_seed_std_zero(self):
        summary = run_suite(tiny_cfg(max_epochs=5, scheduler={"kind": "fixed"}),
                            seeds=(1,))
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

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(tiny_cfg(), seeds=())

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
        written = emit_plots(res, tmp_path, kinds=("velocity", "loss", "lr"))
        assert [p.name for p in written] == ["velocity.svg", "loss.svg", "lr.svg"]
        for p in written:
            assert f"stop @ {res.stop_epoch}" in p.read_text()

    def test_unknown_kind_rejected(self, tmp_path):
        res = run_training(tiny_cfg(max_epochs=2, scheduler={"kind": "fixed"}), seed=1)
        from neve.experiment import emit_plots
        with pytest.raises(ConfigError, match="plot kind"):
            emit_plots(res, tmp_path, kinds=("sparkline",))


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

    def test_aux_sweep_writes_curves(self, tmp_path, capsys):
        code = main(["aux-sweep", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--val-fracs", "0,0.2",
                     "--aux-sizes", "5,20", "--aux-sources", "noise",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "accuracy_vs_val_fraction.svg").exists()
        assert (tmp_path / "accuracy_vs_aux_size.svg").exists()

    def test_optim_compare_runs_both_optimizers(self, tmp_path, capsys):
        code = main(["optim-compare", "--dataset", "blobs", "--n-samples", "200",
                     "--n-classes", "3", "--arch", "mlp:2-8-3", "--seeds", "1",
                     "--max-epochs", "4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sgd/neve" in out and "adam/neve" in out
        assert (tmp_path / "optim_compare.csv").exists()

    def test_epsilon_analysis_table_is_two_columns(self, capsys):
        assert main(["epsilon-analysis", "--eps-grid", "1e-3,1e-2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["epsilon", "max_delta"]
        assert len(lines) == 4  # header, rule, two rows

    def test_epsilon_analysis_svg(self, tmp_path):
        svg = tmp_path / "eps.svg"
        assert main(["epsilon-analysis", "--eps", "1e-3", "--svg", str(svg)]) == 0
        assert svg.exists() and "polyline" in svg.read_text()

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


def _workload_module():
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    @pytest.mark.parametrize("flag,key", [
        ("--dataset", "dataset.name"), ("--optimizer", "optimizer.kind"),
        ("--scheduler", "scheduler.kind"), ("--aux-source", "aux.source"),
        ("--augment", "dataset.augment")])
    def test_invalid_value_exits_2_naming_field(self, flag, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", flag, "bogus", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("smoke", [False, True])
    def test_benchmark_workload_commands_resolve(self, smoke, tmp_path):
        workloads = _workload_module()
        for name in workloads.WORKLOADS:
            out = tmp_path / name
            out.mkdir()
            args = build_parser().parse_args(workloads.cli_args(name, 7, out, smoke))
            resolve_config(args)
