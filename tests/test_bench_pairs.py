"""tools/bench_pairs.py: paired statistics and the refusal on differing benchmarks.

No benchmark run is started: the refusal happens before any run, and the
statistics are pure functions of the paired values.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_ties_count_for_neither_side():
    s = bench_pairs.compare([5.0, 5.0, 6.0, 4.0], [5.0, 4.0, 6.0, 5.0], "lower")
    assert s["wins"] == 1 and s["pairs"] == 4


@pytest.mark.parametrize("better,wins", [("lower", 3), ("higher", 0)])
def test_direction_comes_from_better(better, wins):
    s = bench_pairs.compare([2.0, 3.0, 4.0], [1.0, 2.0, 3.0], better)
    assert s["wins"] == wins


def test_quartiles_of_ten_values():
    assert bench_pairs.quartiles([float(v) for v in range(10, 0, -1)]) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_gain_needs_nine_wins_in_ten():
    parent = [10.0 + 0.01 * i for i in range(10)]
    nine = [9.0] * 9 + [11.0]
    eight = [9.0] * 8 + [11.0, 11.0]
    assert bench_pairs.compare(parent, nine, "lower")["gain_holds"]
    assert not bench_pairs.compare(parent, eight, "lower")["gain_holds"]


@pytest.mark.parametrize("pairs", [1, 3, 9])
def test_gain_needs_ten_pairs(pairs):
    parent = [10.0 + i for i in range(pairs)]
    s = bench_pairs.compare(parent, [p - 100.0 for p in parent], "lower")
    assert s["wins"] == pairs and not s["gain_holds"]


def test_gain_needs_a_median_gap_beyond_the_parent_iqr():
    parent = [10.0, 10.0, 12.0, 12.0, 12.0, 12.0, 14.0, 14.0, 14.0, 14.0]   # Q1 12, Q3 14
    inside = [p - 1.5 for p in parent]    # every pair won, median gap 1.5 < IQR 2
    beyond = [p - 2.5 for p in parent]    # median gap 2.5 > IQR 2
    assert not bench_pairs.compare(parent, inside, "lower")["gain_holds"]
    assert bench_pairs.compare(parent, beyond, "lower")["gain_holds"]
    assert bench_pairs.compare(beyond, parent, "higher")["gain_holds"]
    assert not bench_pairs.compare(parent, beyond, "higher")["gain_holds"]


def test_verdict_worse_beyond_the_bound():
    parent = [10.0, 10.0, 10.1, 10.1]
    assert bench_pairs.verdict(parent, [11.2] * 4, "lower", 0.1) == "worse"   # +11%
    assert bench_pairs.verdict(parent, [8.9] * 4, "higher", 0.1) == "worse"   # -11%
    assert bench_pairs.verdict(parent, [10.9] * 4, "lower", 0.1) != "worse"   # +9%


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    parent = [8.0, 9.0, 11.0, 12.0]   # median 10, Q3 - Q1 = 2.5 > 0.1 * 10
    assert bench_pairs.verdict(parent, parent, "lower", 0.1) == "unresolved"
    # every change run beats every parent run: resolved
    assert bench_pairs.verdict(parent, [7.5, 7.9, 7.0, 7.2], "lower", 0.1) == "ok"


def test_verdict_ok_within_the_bound():
    parent = [10.0, 10.1, 10.2, 10.3]
    assert bench_pairs.verdict(parent, [10.6, 10.7, 10.8, 10.9], "lower", 0.1) == "ok"
    assert bench_pairs.verdict(parent, [9.0, 9.1, 9.2, 9.3], "lower", 0.1) == "ok"


def make_tree(root: Path, spec: dict, worker: str) -> Path:
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "out").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench" / "worker.py").write_text(worker)
    (root / "perfbench" / "__pycache__" / "worker.pyc").write_bytes(root.name.encode())
    (root / "perfbench" / "out" / "result.json").write_text(root.name)
    return root


def run_refused(tmp_path, parent: Path, change: Path, capsys) -> str:
    out = tmp_path / "out"
    argv = [str(parent), str(change), "--workload", "w", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("differing", ["BENCHMARK.json", "perfbench/worker.py"])
def test_refuses_differing_benchmark_files(tmp_path, capsys, differing):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}]}
    parent = make_tree(tmp_path / "parent", spec, "x = 1\n")
    change = make_tree(tmp_path / "change", {**spec, "run_seconds": 1}
                       if differing == "BENCHMARK.json" else spec,
                       "x = 2\n" if differing != "BENCHMARK.json" else "x = 1\n")
    assert f"benchmark files differ: {differing}" in run_refused(tmp_path, parent, change, capsys)


def test_refuses_a_tree_without_benchmark(tmp_path, capsys):
    spec = {"end_to_end": []}
    parent = make_tree(tmp_path / "parent", spec, "")
    assert "cannot read the benchmark files" in run_refused(
        tmp_path, parent, tmp_path / "missing", capsys)


def test_refuses_workload_all(tmp_path, capsys):
    spec = {"end_to_end": []}
    tree = make_tree(tmp_path / "tree", spec, "")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tree), str(tree), "--workload", "all", "--seed", "1",
                          "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "--workload all is refused" in capsys.readouterr().err


def test_cache_and_run_output_are_not_compared(tmp_path):
    spec = {"end_to_end": []}
    parent = make_tree(tmp_path / "parent", spec, "")
    change = make_tree(tmp_path / "change", spec, "")
    assert bench_pairs.benchmark_difference(parent, change) is None
