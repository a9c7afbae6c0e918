"""tools/compare_outputs.py: identical runs, numeric drift and changed decisions."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

HEADER = "epoch,train_loss,test_acc,learning_rate,decision,wall_seconds\n"


def write_run(root: Path, rows: list[str], velocity: str = "0,0.5,0.25\n") -> Path:
    root.mkdir()
    (root / "run_seed1.csv").write_text(HEADER + "".join(rows))
    (root / "velocity_seed1").mkdir()
    (root / "velocity_seed1" / "velocity_epoch0001.csv").write_text(
        "neuron_id,rho,v\n" + velocity)
    return root


def test_identical_apart_from_wall_seconds(tmp_path, capsys):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1.25\n"])
    b = write_run(tmp_path / "b", ["1,0.5,0.9,0.1,continue,3.5\n"])
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("identical (2 CSV files")


def test_numeric_drift_reported_per_column(tmp_path, capsys):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1\n"])
    b = write_run(tmp_path / "b", ["1,0.5000000000000001,0.9,0.1,continue,1\n"],
                  velocity="0,0.5,0.2500000000000001\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "run_seed1.csv: train_loss max rel diff 2.22e-16 (abs 1.11e-16)" in out
    assert "velocity_epoch0001.csv: v max rel diff" in out
    assert out.splitlines()[-1] == "decision, learning_rate and accuracy columns match"


def test_largest_relative_and_absolute_differences_named_apart(tmp_path, capsys):
    # a near-zero v holds the largest relative difference, the loss the largest absolute one
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1\n"], velocity="0,0.5,1e-16\n")
    b = write_run(tmp_path / "b", ["1,0.50001,0.9,0.1,continue,1\n"], velocity="0,0.5,5e-16\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == (
        "differ; largest relative difference 0.8 (velocity_seed1/velocity_epoch0001.csv: v); "
        "largest absolute difference 1e-05 (run_seed1.csv: train_loss)")


@pytest.mark.parametrize("row", ["1,0.5,0.9,0.05,rescale,1\n", "1,0.5,0.8,0.1,continue,1\n"])
def test_changed_key_column_flagged(tmp_path, capsys, row):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1\n"])
    b = write_run(tmp_path / "b", [row])
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("DO NOT match")


def test_missing_file_and_extra_row(tmp_path, capsys):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1\n"])
    b = write_run(tmp_path / "b", ["1,0.5,0.9,0.1,continue,1\n", "2,0.4,0.9,0.1,stop,1\n"])
    (b / "summary.csv").write_text("label\nneve\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"summary.csv: only in {b}" in out
    assert "run_seed1.csv: row counts differ: 1 vs 2" in out
    assert out.splitlines()[-1].endswith("DO NOT match")
    assert compare_outputs.main([str(a)]) == 2
    (tmp_path / "empty").mkdir()
    assert compare_outputs.main([str(tmp_path / "empty"), str(tmp_path / "empty")]) == 2


def test_other_files_compared_byte_for_byte(tmp_path, capsys):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1.25\n"])
    b = write_run(tmp_path / "b", ["1,0.5,0.9,0.1,continue,3.5\n"])
    for root in (a, b):
        (root / "config.json").write_text('{"seeds": [1]}\n')
        (root / "loss_seed1.svg").write_text("<svg>1</svg>\n")
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "identical (2 CSV files, wall_seconds ignored; 2 other files byte for byte)")
    (b / "loss_seed1.svg").write_text("<svg>2</svg>\n")
    (b / "velocity_seed1.svg").write_text("<svg/>\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "config.json: identical" in out
    assert "loss_seed1.svg: bytes differ" in out
    assert f"velocity_seed1.svg: only in {b}" in out
    assert out.splitlines()[-1] == "decision, learning_rate and accuracy columns match"


@pytest.mark.parametrize("csv_b,problem", [
    # csv.writer ends its lines with \r\n, the record writer with \n
    ("epoch,v,wall_seconds\n1,0.5,0.02\n", "headers differ"),
    ("epoch,v,wall_seconds\r\n1,0.5,0.02\n", "line ends or cell counts differ on 1 rows"),
    # a quoted cell holds the same value in other bytes
    ("epoch,v,wall_seconds\r\n1,\"0.5\",0.02\r\n", "v differs")],
    ids=["header-line-end", "row-line-end", "quoted-cell"])
def test_csv_lines_compared_byte_for_byte(tmp_path, capsys, csv_b, problem):
    for root, text in ((tmp_path / "a", "epoch,v,wall_seconds\r\n1,0.5,0.01\r\n"),
                       (tmp_path / "b", csv_b)):
        root.mkdir()
        (root / "run.csv").write_bytes(text.encode())
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"run.csv: {problem}" in capsys.readouterr().out


def test_json_keys_reported_when_bytes_differ(tmp_path, capsys):
    a = write_run(tmp_path / "a", ["1,0.5,0.9,0.1,continue,1\n"])
    b = write_run(tmp_path / "b", ["1,0.5,0.9,0.1,continue,1\n"])
    config = {"seeds": [1], "optimizer": {"lr": 0.1, "eps": 1e-08}}
    (a / "config.json").write_text(json.dumps(config))
    (b / "config.json").write_text(json.dumps(
        {"seeds": [1, 2], "optimizer": {"lr": 0.1}, "dump_velocity": False}))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert ("config.json: bytes differ\n"
            "  seeds: [1] -> [1, 2]\n"
            "  optimizer.eps: removed, was 1e-08\n"
            "  dump_velocity: added, false\n") in capsys.readouterr().out
    # the verdict comes from the bytes: the same keys and values, indented, still differ
    (b / "config.json").write_text(json.dumps(config, indent=2))
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "config.json: bytes differ\nrun_seed1.csv: identical" in out
    assert out.splitlines()[-1] == "decision, learning_rate and accuracy columns match"
