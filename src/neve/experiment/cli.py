"""Command-line surface: train, compare, sweeps and the epsilon analysis.

Every flag in FLAGS overrides the matching key of the (optional) JSON
config file. Flag values are checked by the config itself: an invalid
one exits with code 2 and an error naming the field. The default output
directory comes from NEVE_OUT_DIR when set; the --out flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import get_args, get_origin

from ..controller import epsilon_analysis
from ..errors import ConfigError, NeveError
from .config import ExperimentConfig, config_from_file, field_types, merge_overrides
from .runner import emit_csv, emit_plots, run_training, summarize_results
from .svg import line_chart

DEFAULT_OUT = "neve-out"


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _parse_names(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


# flag -> dotted config key; the field's annotation gives the flag's type
FLAGS = {
    "--seeds": "seeds", "--max-epochs": "max_epochs", "--batch-size": "batch_size",
    "--dataset": "dataset.name", "--subset": "dataset.subset",
    "--val-fraction": "dataset.validation_fraction", "--augment": "dataset.augment",
    "--normalize": "dataset.normalize", "--data-seed": "dataset.data_seed",
    "--n-samples": "dataset.n_samples", "--n-classes": "dataset.n_classes",
    "--sigma": "dataset.sigma", "--noise": "dataset.noise",
    "--test-samples": "dataset.test_samples",
    "--train-images": "dataset.train_images", "--train-labels": "dataset.train_labels",
    "--test-images": "dataset.test_images", "--test-labels": "dataset.test_labels",
    "--arch": "arch", "--optimizer": "optimizer.kind", "--lr": "optimizer.lr",
    "--momentum": "optimizer.momentum", "--weight-decay": "optimizer.weight_decay",
    "--scheduler": "scheduler.kind", "--epsilon": "scheduler.epsilon",
    "--alpha": "scheduler.alpha", "--patience": "scheduler.patience",
    "--rel-span": "scheduler.plateau_rel_span", "--cooldown": "scheduler.cooldown",
    "--mu-vel": "scheduler.mu_vel", "--milestones": "scheduler.milestones",
    "--factor": "scheduler.factor", "--vloss-patience": "scheduler.vloss_patience",
    "--stop-patience": "scheduler.stop_patience",
    "--aux-source": "aux.source", "--aux-count": "aux.count", "--aux-seed": "aux.seed",
    "--probe-aux": "probe_aux", "--no-probe": "probe_velocity",
    "--dump-velocity": "dump_velocity",
}


def _flag_type(hint):
    """argparse type for a field annotation; values are checked by validate()."""
    if get_origin(hint) is tuple:
        return {int: _parse_ints, str: _parse_names}[get_args(hint)[0]]
    if hint is object:          # arch: the shorthand string
        return str
    args = [a for a in get_args(hint) if a is not type(None)]   # X | None -> X
    return args[0] if args else hint


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (default $NEVE_OUT_DIR or ./neve-out)")
    defaults = ExperimentConfig()
    for flag, key in FLAGS.items():
        hint, default = ExperimentConfig, defaults
        for part in key.split("."):
            hint, default = field_types(hint)[part], getattr(default, part)
        if hint is bool:
            p.add_argument(flag, dest=key, action="store_const", const=not default,
                           default=None, help=f"set {key} to {not default}")
        else:
            p.add_argument(flag, dest=key, type=_flag_type(hint),
                           help="comma-separated" if get_origin(hint) is tuple else None)


def resolve_config(args) -> ExperimentConfig:
    cfg = config_from_file(args.config) if args.config else ExperimentConfig()
    return merge_overrides(cfg, {key: getattr(args, key) for key in FLAGS.values()})


def ensure_out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("NEVE_OUT_DIR") or DEFAULT_OUT)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise NeveError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _echo_config(cfg: ExperimentConfig, out: Path) -> None:
    with open(out / "config.json", "w") as f:
        json.dump(cfg.to_dict(), f, indent=2, default=str)
        f.write("\n")


def _run_seeds(cfg: ExperimentConfig, out: Path | None = None, tag: str = "",
               dump: bool = False):
    results = []
    for seed in cfg.seeds:
        dump_dir = None
        if dump and out is not None:
            dump_dir = out / f"velocity{tag}_seed{seed}"
            dump_dir.mkdir(parents=True, exist_ok=True)
        result = run_training(cfg, seed, dump_dir=dump_dir)
        results.append(result)
        if result.failed:
            print(f"  seed {seed}: FAILED ({result.error})")
        else:
            final = result.final
            end = (f"stopped at epoch {result.stop_epoch}"
                   if result.stop_epoch is not None
                   else f"reached max_epochs {final.epoch}")
            print(f"  seed {seed}: {end}, test acc {final.test_acc:.4f}")
    return results


def _plot_run(result, out: Path, tag: str) -> None:
    if result.failed or not result.records:
        return
    emit_plots(result, out, tag=tag)


def _print_table(headers, rows) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _summary_row(summary):
    return (summary.label,
            f"{100 * summary.mean_acc:.2f} +- {100 * summary.std_acc:.2f}",
            f"{summary.mean_stop:.1f} +- {summary.std_stop:.1f}")


def _write_summary_csv(path, summaries) -> None:
    with open(path, "w") as f:
        f.write("label,mean_test_acc,std_test_acc,mean_stop_epoch,std_stop_epoch,seeds\n")
        for s in summaries:
            f.write(f"{s.label},{s.mean_acc!r},{s.std_acc!r},{s.mean_stop!r},"
                    f"{s.std_stop!r},{' '.join(map(str, s.seeds))}\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out = ensure_out_dir(args)
    _echo_config(cfg, out)
    print(f"train: scheduler={cfg.scheduler.kind} dataset={cfg.dataset.name} "
          f"arch={cfg.arch} seeds={list(cfg.seeds)}")
    results = _run_seeds(cfg, out, dump=cfg.dump_velocity)
    for result in results:
        if result.records:
            emit_csv(result.records, out / f"run_seed{result.seed}.csv")
            _plot_run(result, out, f"_seed{result.seed}")
    summary = summarize_results(cfg.scheduler.kind, tuple(cfg.seeds), results)
    _print_table(("scheduler", "test acc [%]", "stop epoch"), [_summary_row(summary)])
    _write_summary_csv(out / "summary.csv", [summary])
    return 0


def cmd_compare(args) -> int:
    base = resolve_config(args)
    out = ensure_out_dir(args)
    _echo_config(base, out)
    variants = [
        ("neve (0% val)", base.replace(
            scheduler=base.scheduler_with(kind="neve"),
            dataset=base.dataset_with(validation_fraction=0.0))),
        ("fixed (0% val)", base.replace(
            scheduler=base.scheduler_with(kind="fixed"),
            dataset=base.dataset_with(validation_fraction=0.0))),
        ("step_decay (0% val)", base.replace(
            scheduler=base.scheduler_with(kind="step_decay"),
            dataset=base.dataset_with(validation_fraction=0.0))),
        (f"vloss ({int(100 * args.vloss_fraction)}% val)", base.replace(
            scheduler=base.scheduler_with(kind="vloss"),
            dataset=base.dataset_with(validation_fraction=args.vloss_fraction))),
    ]
    summaries = []
    acc_series = []
    for label, cfg in variants:
        print(f"compare: running {label}")
        results = _run_seeds(cfg)
        summaries.append(summarize_results(label, tuple(cfg.seeds), results))
        first = results[0]
        if first.records:
            acc_series.append((label, [r.epoch for r in first.records],
                               [r.test_acc for r in first.records]))
    _print_table(("scheduler", "test acc [%]", "stop epoch"),
                 [_summary_row(s) for s in summaries])
    _write_summary_csv(out / "summary.csv", summaries)
    if acc_series:
        line_chart(out / "compare_accuracy.svg", acc_series,
                   title="Test accuracy by scheduler", xlabel="epoch",
                   ylabel="test accuracy")
    return 0


def cmd_epsilon_sweep(args) -> int:
    base = resolve_config(args)
    out = ensure_out_dir(args)
    _echo_config(base, out)
    grid = args.eps_grid
    summaries = []
    for eps in grid:
        cfg = base.replace(scheduler=base.scheduler_with(kind="neve", epsilon=eps))
        print(f"epsilon-sweep: eps={eps:g}")
        results = _run_seeds(cfg)
        summaries.append(summarize_results(f"eps={eps:g}", tuple(cfg.seeds), results))
    _print_table(("epsilon", "test acc [%]", "stop epoch"),
                 [(f"{eps:g}",) + _summary_row(s)[1:] for eps, s in zip(grid, summaries)])
    _write_summary_csv(out / "epsilon_sweep.csv", summaries)
    line_chart(out / "epsilon_stop_epochs.svg",
               [("epochs to stop", grid, [s.mean_stop for s in summaries])],
               title="Training length vs stop threshold", xlabel="epsilon",
               ylabel="epochs", log_x=True)
    line_chart(out / "epsilon_accuracy.svg",
               [("test accuracy", grid, [s.mean_acc for s in summaries])],
               title="Accuracy vs stop threshold", xlabel="epsilon",
               ylabel="test accuracy", log_x=True)
    return 0


def cmd_aux_sweep(args) -> int:
    base = resolve_config(args)
    out = ensure_out_dir(args)
    _echo_config(base, out)
    summaries = []

    frac_rows = []
    for frac in args.val_fracs:
        cfg = base.replace(
            scheduler=base.scheduler_with(kind="fixed"),
            dataset=base.dataset_with(validation_fraction=frac),
            probe_velocity=False, probe_aux=())
        print(f"aux-sweep: validation fraction {frac:g}")
        results = _run_seeds(cfg)
        s = summarize_results(f"val={frac:g}", tuple(cfg.seeds), results)
        summaries.append(s)
        frac_rows.append((frac, s.mean_acc))
    if frac_rows:
        line_chart(out / "accuracy_vs_val_fraction.svg",
                   [("test accuracy", [r[0] for r in frac_rows],
                     [r[1] for r in frac_rows])],
                   title="Cost of holding out training data",
                   xlabel="validation fraction", ylabel="test accuracy")

    size_series = []
    for source in args.aux_sources:
        accs = []
        for count in args.aux_sizes:
            frac = base.dataset.validation_fraction
            if source == "heldout" and frac <= 0:
                frac = args.heldout_fraction
            cfg = base.replace(
                scheduler=base.scheduler_with(kind="neve"),
                dataset=base.dataset_with(validation_fraction=frac),
                aux=base.aux_with(source=source, count=count))
            print(f"aux-sweep: source={source} count={count}")
            results = _run_seeds(cfg)
            s = summarize_results(f"{source}/{count}", tuple(cfg.seeds), results)
            summaries.append(s)
            accs.append(s.mean_acc)
        size_series.append((source, list(args.aux_sizes), accs))
    if size_series:
        line_chart(out / "accuracy_vs_aux_size.svg", size_series,
                   title="Accuracy vs auxiliary-set size", xlabel="aux samples",
                   ylabel="test accuracy", log_x=True)
    _print_table(("setting", "test acc [%]", "stop epoch"),
                 [_summary_row(s) for s in summaries])
    _write_summary_csv(out / "aux_sweep.csv", summaries)
    return 0


def cmd_epsilon_analysis(args) -> int:
    grid = args.eps_grid if args.eps_grid else (args.eps,)
    rows = [(f"{eps:g}", f"{epsilon_analysis(eps).max_delta:.6g}") for eps in grid]
    _print_table(("epsilon", "max_delta"), rows)
    if args.svg:
        dense = [10 ** (-4 + 3.5 * i / 199) for i in range(200)]
        line_chart(args.svg,
                   [("max output variation", dense,
                     [epsilon_analysis(e).max_delta for e in dense])],
                   title="Worst-case softmax variation at the stop threshold",
                   xlabel="epsilon", ylabel="max delta", log_x=True, log_y=True)
    return 0


def cmd_optim_compare(args) -> int:
    base = resolve_config(args)
    out = ensure_out_dir(args)
    _echo_config(base, out)
    summaries = []
    vel_series = []
    for kind in ("sgd", "adam"):
        lr = base.optimizer.lr if kind == "sgd" else args.adam_lr
        opt_spec = base.optimizer_with(kind=kind, lr=lr)
        for sched in ("neve", "fixed"):
            cfg = base.replace(optimizer=opt_spec,
                               scheduler=base.scheduler_with(kind=sched))
            print(f"optim-compare: {kind} + {sched}")
            results = _run_seeds(cfg)
            summaries.append(summarize_results(f"{kind}/{sched}", tuple(cfg.seeds),
                                               results))
            first = results[0]
            if sched == "neve" and first.velocity_series:
                vs = first.velocity_series[first.primary_source]
                vel_series.append((kind, list(range(1, len(vs) + 1)), vs))
    _print_table(("optimizer/scheduler", "test acc [%]", "stop epoch"),
                 [_summary_row(s) for s in summaries])
    _write_summary_csv(out / "optim_compare.csv", summaries)
    if vel_series:
        line_chart(out / "optim_velocity.svg", vel_series,
                   title="Model velocity by optimizer", xlabel="epoch",
                   ylabel="model velocity", log_y=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neve",
        description="Velocity-driven training: learning-rate decay and stopping "
                    "without a validation set.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one configuration over one or more seeds")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="neve vs fixed vs step_decay vs vloss")
    _add_common(p)
    p.add_argument("--vloss-fraction", type=float, default=0.3, dest="vloss_fraction",
                   help="validation holdout for the vloss baseline (default 0.3)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("epsilon-sweep", help="epochs-to-stop and accuracy vs epsilon")
    _add_common(p)
    p.add_argument("--eps-grid", type=_parse_floats, dest="eps_grid",
                   default=(1e-4, 1e-3, 1e-2, 1e-1))
    p.set_defaults(func=cmd_epsilon_sweep)

    p = sub.add_parser("aux-sweep", help="accuracy vs holdout fraction and aux size")
    _add_common(p)
    p.add_argument("--val-fracs", type=_parse_floats, dest="val_fracs",
                   default=(0.0, 0.1, 0.3))
    p.add_argument("--aux-sizes", type=_parse_ints, dest="aux_sizes",
                   default=(1, 10, 100))
    p.add_argument("--aux-sources", type=_parse_names, dest="aux_sources",
                   default=("noise", "heldout"))
    p.add_argument("--heldout-fraction", type=float, default=0.1,
                   dest="heldout_fraction")
    p.set_defaults(func=cmd_aux_sweep)

    p = sub.add_parser("epsilon-analysis",
                       help="closed-form worst-case softmax variation table")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps-grid", type=_parse_floats, dest="eps_grid")
    p.add_argument("--svg", help="also write the curve to this SVG path")
    p.set_defaults(func=cmd_epsilon_analysis)

    p = sub.add_parser("optim-compare", help="sgd vs adam under the velocity controller")
    _add_common(p)
    p.add_argument("--adam-lr", type=float, default=1e-3, dest="adam_lr")
    p.set_defaults(func=cmd_optim_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NeveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
