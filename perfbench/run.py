"""neve benchmark: three training workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                  # all workloads, run_seconds each
    python3 perfbench/run.py --workload digits-conv --seed 3 --seconds 35 --trace 0

Each round runs one workload once in a fresh Python process
(``worker.py``), with the BLAS thread count pinned in its environment
before numpy loads. Rounds repeat until the next one would end after
``--seconds``. Timings take the fastest round, set-up time, memory and
accuracy the median round. With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` rounds alternate untraced and traced and the
per-layer metrics of the traced rounds are printed, with the tracing
overhead. Every round's outputs are checked (``checks.py``). The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Stdlib only; the workers import numpy and the package from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# hard limit for one benchmark invocation, per workload
DEADLINE_S = 170.0
# BLAS threads per worker: logged numbers reproduce only at a fixed count,
# and one thread never exceeds the core count
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload, seed, traced, smoke, round_dir, timeout) -> dict:
    round_dir.mkdir(parents=True)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(round_dir), "--trace", str(int(traced))]
    if smoke:
        cmd.append("--smoke")
    log_path = round_dir / "worker.log"
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: round exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = log_path.read_text().strip().splitlines()[-5:]
        raise BenchError(f"{workload}: worker exited with {proc.returncode}:\n  "
                         + "\n  ".join(tail))
    with open(round_dir / "round.json") as f:
        return json.load(f)


def run_workload(args, workload: str) -> dict:
    out = Path(args.out) / workload
    shutil.rmtree(out, ignore_errors=True)
    rounds, durations = [], []
    start = time.monotonic()
    min_rounds = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        timeout = DEADLINE_S - (t0 - start)
        if timeout <= 0:
            raise BenchError(f"{workload}: no time left for round {len(rounds) + 1}")
        rounds.append(run_round(workload, args.seed, traced, args.smoke,
                                out / f"round{len(rounds) + 1:02d}", timeout))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + max(durations) > args.seconds:
            break
    return summarize(args, workload, rounds, out)


def summarize(args, workload, rounds, out) -> dict:
    med = statistics.median
    plain = [r for r in rounds if not r["traced"]]
    epochs = [e for r in plain for e in r["epoch_s"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        units = declared_units("per_layer")
        values = {name: med(r["layers"][name] for r in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (min(r["wall_s"] for r in traced)
                                      - min(r["wall_s"] for r in plain))
    else:
        units = declared_units("end_to_end")
        # Timings take the fastest round: this host's speed drifts by up to
        # ~20% over seconds to minutes (CPU time drifts with wall time), and
        # interference only ever adds time. Set-up takes the median.
        values = {
            "setup_s": med(r["setup_s"] for r in plain),
            "wall_s": min(r["wall_s"] for r in plain),
            "samples_per_s": max(r["samples"] / r["wall_s"] for r in plain),
            "epoch_ms": 1e3 * min(med(r["epoch_s"]) for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "test_acc": med(statistics.fmean(r["test_acc"]) for r in plain),
        }
    problems = [p for r in rounds for p in r["workload_problems"]]
    problems += [f"run {i}: {p}" for r in rounds for i, ps in r["problems"].items() for p in ps]
    env = dict(rounds[0]["env"], blas_threads=BLAS_THREADS, nproc=nproc(),
               git_commit=git_commit(), seed=args.seed, run_seeds=rounds[0]["run_seeds"])
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(out / "result.json", "w") as f:
        json.dump({"workload": workload, "env": env, "epochs": len(epochs),
                   "problems": problems, "result": result,
                   "rounds": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "samples",
                                                 "peak_rss_mb", "epoch_s")}
                              for r in rounds]}, f)

    print(f"== {workload}: {len(rounds)} rounds ({len(plain)} untraced), "
          f"{len(epochs)} epochs timed, seed {args.seed} -> run seeds {env['run_seeds']}")
    print("env " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  runs attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for p in problems[:10]:
        print(f"  problem: {p}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="workload seed (inputs and run seeds)")
    p.add_argument("--seconds", type=float, help="measuring time per workload "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced rounds")
    p.add_argument("--smoke", action="store_true", help="tiny workloads, for the tests")
    p.add_argument("--out", default=str(HERE / "out"), help="round output directory")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "neve" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
