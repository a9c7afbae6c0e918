"""One benchmark round: a workload run once in this fresh process.

Usage (normally started by ``run.py``, which pins the BLAS thread count
in the environment before numpy loads):

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace 1] [--smoke]

The round calls the ``neve`` CLI entry point in-process, captures the
returned ``RunResult`` of every training run, then checks the outputs
with ``checks.py`` and writes ``DIR/round.json``. With ``--trace 1`` the
spans of the round are kept in memory, written to ``DIR/spans.json`` and
folded into per-layer metrics.
"""

import time

T_START = time.perf_counter()   # before numpy and neve are imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


@dataclasses.dataclass
class Run:
    cfg: object
    seed: int
    dump_dir: object
    result: object
    seconds: float        # wall time of the run_training call


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def check_runs(name: str, runs: list, out_dir: Path) -> tuple[dict, int, list]:
    """Check every run; returns (per-run problems, samples stepped,
    workload-level problems)."""
    import checks
    from neve.experiment.runner import load_dataset

    datasets = {}
    problems = {}
    samples = 0
    for i, run in enumerate(runs):
        spec = dataclasses.replace(run.cfg.dataset, validation_fraction=0.0)
        if spec not in datasets:
            datasets[spec] = load_dataset(spec)
        train_full, test = datasets[spec]
        n_train = len(train_full) - int(round(run.cfg.dataset.validation_fraction
                                             * len(train_full)))
        records = run.result.records
        samples += n_train * len(records)
        found = []
        if run.result.failed or not records:
            found.append(f"run failed: {run.result.error or 'no records'}")
        else:
            found += checks.check_decisions(run.cfg, checks.record_rows(records))
            final = records[-1]
            found += checks.check_final_test(run.result.model, test,
                                             final.test_loss, final.test_acc)
        if run.dump_dir is not None:
            logged = checks.read_run_csv(out_dir / f"run_seed{run.seed}.csv")
            found += checks.check_decisions(run.cfg, checks.csv_rows(logged))
            found += checks.check_velocity_dumps(
                run.dump_dir, [float(r["model_velocity"]) for r in logged])
        problems[i] = found

    if name == "blobs-eps-sweep":
        by_seed = {}
        for i, run in enumerate(runs):
            by_seed.setdefault(run.seed, []).append((run.cfg.scheduler.epsilon, i))
        for members in by_seed.values():
            members.sort()
            for (_, lo), (_, hi) in zip(members, members[1:]):
                problems[hi] += checks.check_epsilon_pair(runs[lo].result.records,
                                                          runs[hi].result.records)

    groups = {}
    for run in runs:
        s = run.cfg.scheduler
        key = (s.kind, s.epsilon, run.cfg.dataset.validation_fraction)
        if not run.result.failed and run.result.records:
            groups.setdefault(key, []).append(run.result.records[-1].test_acc)
    summary = out_dir / ("epsilon_sweep.csv" if name == "blobs-eps-sweep" else "summary.csv")
    workload_problems = checks.check_summary(summary, list(groups.values()))
    return problems, samples, workload_problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    import numpy as np
    import neve.experiment.cli as cli
    import neve.experiment.runner as runner
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    runs: list[Run] = []
    first_call = []
    train = runner.run_training

    def capture(cfg, seed, dump_dir=None):
        start = time.perf_counter()
        if not first_call:
            first_call.append(start)
        result = train(cfg, seed, dump_dir=dump_dir)
        runs.append(Run(cfg, seed, dump_dir, result, time.perf_counter() - start))
        return result

    spans.rebind(train, capture)
    argv_cli = workloads.cli_args(args.workload, args.seed, out_dir, smoke=args.smoke)
    code = cli.main(argv_cli)
    wall_s = time.perf_counter() - T_START
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0 or not runs:
        print(f"worker: neve {' '.join(argv_cli)} exited with {code}", file=sys.stderr)
        return 1

    epoch_s = [r.wall_seconds for run in runs for r in run.result.records]
    setup_s = (first_call[0] - T_START) + sum(run.seconds for run in runs) - sum(epoch_s)
    layers = None
    if tracer is not None:
        layers = spans.layer_metrics(tracer, epochs=len(epoch_s), runs=len(runs),
                                     epoch_wall_s=sum(epoch_s))
        with open(out_dir / "spans.json", "w") as f:
            json.dump(tracer.dump(), f)

    problems, samples, workload_problems = check_runs(args.workload, runs, out_dir)
    expected = workloads.expected_runs(args.workload, args.smoke)
    if len(runs) != expected:
        workload_problems.append(f"{len(runs)} training runs, expected {expected}")
    failed = sum(1 for found in problems.values() if found)
    # a run the program itself reports as failed is counted, not judged
    wrong = [i for i, found in problems.items() if found and not runs[i].result.failed]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seeds": sorted({run.seed for run in runs}),
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "samples": samples,
        "epoch_s": epoch_s,
        "peak_rss_mb": peak_rss_mb,
        "test_acc": [run.result.records[-1].test_acc for run in runs if run.result.records],
        "attempted": len(runs),
        "failed": failed,
        "correct": not wrong and not workload_problems,
        "problems": {str(i): found for i, found in problems.items() if found},
        "workload_problems": workload_problems,
        "layers": layers,
        "env": {"numpy": np.__version__, "blas": blas_info(np),
                "python": platform.python_version()},
    }
    with open(out_dir / "round.json", "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
