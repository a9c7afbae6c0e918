"""Run the benchmark on two source trees in alternating pairs and compare.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --out DIR

It runs ten pairs. Each pair runs ``python3 TREE/perfbench/run.py
--workload W --seed S`` once on each tree, one after the other, for the
``run_seconds`` of ``BENCHMARK.json``; the parent goes first in even
pairs and the change in odd ones, so that a drift of the host's speed
falls on both sides alike. Run ``i`` of a side writes its rounds to
``DIR/pair<i>-<side>/`` and its standard output to ``DIR/pair<i>-<side>.log``;
``DIR/pairs.json`` keeps every run's end-to-end metrics and the summary.

For each end-to-end metric of ``BENCHMARK.json`` it prints the parent's
and the change's median with quartiles (Q1-Q3), the change's wins k/n
(a pair is a win when the change's value is better in the direction the
metric's ``better`` names; ties count for neither side) and whether a gain
may be claimed: at least ten pairs, at least nine wins in ten, and a
median better than the parent's by more than the parent's Q3 - Q1. It
also prints the no-regression verdict, with the metric's ``bound``:
``worse`` when the change's median is worse than the parent's by more
than ``bound * |parent median|``; else ``unresolved`` when the parent's
Q3 - Q1 exceeds that margin, unless every change run beats every parent
run; else ``ok``. A workload is compared on its own, so ``--workload
all`` is refused.

Both trees must hold byte-identical ``BENCHMARK.json`` files and
``perfbench/`` directories (``__pycache__`` and ``perfbench/out`` aside),
or nothing runs. Exit status: 0 when every run passed its checks; 1 when
a run exited non-zero, reported ``correct: false`` or any failed training
run; 2 on a usage error or differing benchmark files. Standard library
only; nothing is written outside ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10   # the fewest pairs a gain may be claimed on


class RunFailed(Exception):
    """A benchmark run exited non-zero, failed its checks or failed a training run."""


def benchmark_files(tree: Path) -> dict[str, bytes]:
    """Relative path -> bytes of ``BENCHMARK.json`` and every file under ``perfbench/``."""
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    bench = tree / "perfbench"
    for path in sorted(bench.rglob("*")):
        rel = path.relative_to(bench)
        if path.is_file() and "__pycache__" not in rel.parts and rel.parts[0] != "out":
            files[f"perfbench/{rel.as_posix()}"] = path.read_bytes()
    return files


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """Why the two trees' benchmark files differ, or None when they are identical."""
    try:
        a, b = benchmark_files(parent), benchmark_files(change)
    except OSError as exc:
        return f"cannot read the benchmark files: {exc}"
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    return f"benchmark files differ: {', '.join(differ)}" if differ else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); the inclusive method, so one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, the change's wins over paired runs and the claim rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "wins": wins, "pairs": len(parent),
            "gain_holds": len(parent) >= PAIRS and 10 * wins >= 9 * len(parent)
            and gain > p_q3 - p_q1}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict of one metric: "worse", "unresolved" or "ok"."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    margin = bound * abs(p_med)
    if sign * (quartiles(change)[1] - p_med) < -margin:
        return "worse"
    if p_q3 - p_q1 > margin and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "ok"


def run_side(tree: Path, args, out: Path) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run on ``tree``."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    log = out.with_suffix(".log")
    with open(log, "w") as f:
        code = subprocess.run(cmd, cwd=tree, stdout=f, stderr=subprocess.STDOUT,
                              env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1")).returncode
    lines = log.read_text().splitlines()
    try:
        result = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise RunFailed(f"{tree} exited {code}; see {log}")
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"{tree} reported correct={result['correct']}, "
                        f"failed={result['failed']}; see {log}")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    args = p.parse_args(argv)
    if args.workload == "all":
        p.error("--workload all is refused: a gain is judged per workload")
    reason = benchmark_difference(args.parent, args.change)
    if reason is not None:
        print(f"bench_pairs: {reason}", file=sys.stderr)
        return 2
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    try:
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_side(trees[side], args, args.out.resolve() / f"pair{i}-{side}")
                runs[side].append({m: v["value"] for m, v in result["metrics"].items()})
                print(f"pair {i} {side}: " + ", ".join(
                    f"{m['name']} {runs[side][-1][m['name']]:.6g}" for m in metrics), flush=True)
    except RunFailed as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    summary = {}
    for m in metrics:
        values = [[r[m["name"]] for r in runs[side]] for side in SIDES]
        summary[m["name"]] = {**compare(*values, m["better"]),
                              "verdict": verdict(*values, m["better"], m["bound"])}
    with open(args.out / "pairs.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "runs": runs, "summary": summary}, f, indent=1)
    print(f"== {args.workload}, seed {args.seed}, {PAIRS} pairs: median [Q1-Q3]")
    print(f"{'metric':14s} {'unit':9s} {'parent':>30s} {'change':>30s} {'wins':>6s}  gain  "
          "verdict")
    for m in metrics:
        s = summary[m["name"]]
        cells = ["{1:.4g} [{0:.4g}-{2:.4g}]".format(*s[side]) for side in SIDES]
        print(f"{m['name']:14s} {m['unit']:9s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{s['wins']:>3d}/{s['pairs']:<2d}  {'holds' if s['gain_holds'] else 'no':5s} "
              f"{s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
