"""Command-line surface: train, compare, sweeps and the epsilon analysis.

The (optional) JSON config file is type-checked as it is read, every flag
in FLAGS replaces the matching key, and the merged config, not the file
alone, is built, which checks it: an invalid value exits with code 2 and
an error naming the field, before the output directory is created. Each
subcommand builds its variants by the same key overrides and runs them
through one driver, which writes each run's records; a flag for a key
that every variant overrides is refused. The output directory is --out,
else NEVE_OUT_DIR, else ./neve-out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import get_args, get_origin

from ..controller import epsilon_analysis
from ..errors import ConfigError, NeveError, check_value, shown
from .config import (ExperimentConfig, config_from_dict, config_from_file, field_types,
                     merge_overrides)
from .runner import emit_csv, emit_plots, load_checked, run_training, summarize_results
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
    "--milestones": "scheduler.milestones", "--factor": "scheduler.factor",
    "--vloss-patience": "scheduler.vloss_patience", "--stop-patience": "scheduler.stop_patience",
    "--probe": "aux.sources", "--aux-count": "aux.count", "--aux-seed": "aux.seed",
    "--dump-velocity": "dump_velocity",
}


def _flag_type(hint):
    """argparse type for a field annotation; the config built from the value checks it."""
    if get_origin(hint) is tuple:
        return {int: _parse_ints, str: _parse_names}[get_args(hint)[0]]
    if hint is object:          # arch: the shorthand string
        return str
    args = [a for a in get_args(hint) if a is not type(None)]   # X | None -> X
    return args[0] if args else hint


def _add_common(p: argparse.ArgumentParser, defaults=ExperimentConfig()) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (default $NEVE_OUT_DIR or ./neve-out)")
    for flag, key in FLAGS.items():
        owner, hint, default = None, ExperimentConfig, defaults
        for part in key.split("."):
            owner, hint, default = hint, field_types(hint)[part], getattr(default, part)
        if hint is bool:
            p.add_argument(flag, dest=key, action="store_const", const=not default,
                           default=None, help=f"set {key} to {not default}")
            continue
        meta = next(f for f in dataclasses.fields(owner) if f.name == part).metadata
        text = f"in {shown(meta['allowed'])}" if "allowed" in meta else None
        if get_origin(hint) is tuple:
            text = "comma-separated" + (f", each {text}" if text else "")
        p.add_argument(flag, dest=key, type=_flag_type(hint), help=text)


def resolve_config(args, variants=()) -> ExperimentConfig:
    """The config of --config and the flags. A flag for a key that every
    ``(label, overrides)`` variant sets would be dropped, so it is refused."""
    flags = {key: getattr(args, key) for key in FLAGS.values()}
    swept = set.intersection(*(set(o) for _, o in variants)) if variants else set()
    for flag, key in FLAGS.items():
        if key in swept and flags[key] is not None:
            raise ConfigError(f"{flag} is refused by {args.command}: every variant sets {key}")
    return config_from_file(args.config, flags) if args.config else config_from_dict({}, flags)


def _echo_config(cfg: ExperimentConfig, out: Path) -> None:
    """``config.json``, with the scheduler the runs read: derived milestones included."""
    resolved = dataclasses.replace(cfg, scheduler=cfg.scheduler_config())
    with open(out / "config.json", "w") as f:
        json.dump(dataclasses.asdict(resolved), f, indent=2, default=str)
        f.write("\n")


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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["label", "mean_test_acc", "std_test_acc", "mean_stop_epoch",
                         "std_stop_epoch", "seeds"])
        writer.writerows([s.label, s.mean_acc, s.std_acc, s.mean_stop, s.std_stop,
                          " ".join(map(str, s.seeds))] for s in summaries)


def _run_name(tag: str, seed: int) -> str:
    return f"{tag}_seed{seed}" if tag else f"seed{seed}"


def _slug(label: str) -> str:
    """File-name tag of a variant label: "vloss (30% val)" -> "vloss-30-val"."""
    return re.sub(r"[^\w.]+", "-", label).strip("-")


def _run_variants(args, base: ExperimentConfig, variants, summary_name: str, column: str):
    """Run every ``(label, overrides)`` variant, ``base`` with its dotted-key
    overrides, over its seeds. Its tag is the label made file-safe; train's is empty.

    Every variant config is built, which checks it; what ``load_checked``
    checks on each variant's data is checked, and no two tags may be equal,
    before the output directory is created. Then, before any run, each
    run's dump directory ``velocity_<tag>_seed<N>/`` (with ``dump_velocity``)
    is created and emptied of dumps, and ``base`` is written to ``config.json``.
    Each run then writes ``run_<tag>_seed<N>.csv`` and its velocity and loss
    charts (the empty tag drops ``<tag>_``). Last come the table and the summary CSV.
    Returns the output directory and one ``(cfg, results, summary)`` per variant.
    """
    if not variants:
        raise ConfigError(f"{args.command}: no variants to run")
    variants = [(label, "" if args.command == "train" else _slug(label),
                 merge_overrides(base, overrides)) for label, overrides in variants]
    tags = set()
    for label, tag, cfg in variants:
        load_checked(cfg)
        if tag in tags:
            raise ConfigError(f"variant {label!r}: another variant has the tag {tag!r}, "
                              "so their run files would collide")
        tags.add(tag)
    out = Path(args.out or os.environ.get("NEVE_OUT_DIR") or DEFAULT_OUT)
    out.mkdir(parents=True, exist_ok=True)
    # the first write into out, a dump directory or config.json, is its writability check
    dump_dirs = {(tag, seed): out / f"velocity_{_run_name(tag, seed)}"
                 for _, tag, cfg in variants if cfg.dump_velocity for seed in cfg.seeds}
    for dump_dir in dump_dirs.values():
        dump_dir.mkdir(exist_ok=True)
        for stale in dump_dir.glob("velocity_epoch*.csv"):   # an earlier run's dumps
            stale.unlink()
    _echo_config(base, out)
    runs = []
    for label, tag, cfg in variants:
        print(f"{args.command}: {label}")
        results = []
        for seed in cfg.seeds:
            name = _run_name(tag, seed)
            result = run_training(cfg, seed, dump_dir=dump_dirs.get((tag, seed)))
            results.append(result)
            if result.records:
                emit_csv(result.records, out / f"run_{name}.csv")
            if result.failed:
                print(f"  seed {seed}: FAILED ({result.error})")
                continue
            emit_plots(result, out, tag=f"_{name}")
            end = (f"stopped at epoch {result.stop_epoch}" if result.stop_epoch is not None
                   else f"reached max_epochs {result.final.epoch}")
            print(f"  seed {seed}: {end}, test acc {result.final.test_acc:.4f}")
        runs.append((cfg, results, summarize_results(label, results)))
    summaries = [summary for _, _, summary in runs]
    _print_table((column, "test acc [%]", "stop epoch"), [_summary_row(s) for s in summaries])
    _write_summary_csv(out / summary_name, summaries)
    return out, runs


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _run_variants(args, cfg, [(cfg.scheduler.kind, {})], "summary.csv", "scheduler")
    return 0


def cmd_compare(args) -> int:
    variants = []
    for kind, frac in (("neve", 0.0), ("fixed", 0.0), ("step_decay", 0.0),
                       ("vloss", args.vloss_fraction)):
        # rounded, as 100 * 0.29 is 28.999999999999996; NaN is left to the config check
        variants.append((f"{kind} ({round(100 * frac, 6):g}% val)",
                         {"scheduler.kind": kind, "dataset.validation_fraction": frac}))
    base = resolve_config(args, variants)
    out, runs = _run_variants(args, base, variants, "summary.csv", "scheduler")
    acc_series = [(summary.label, [r.epoch for r in results[0].records],
                   [r.test_acc for r in results[0].records])
                  for _, results, summary in runs if results[0].records]
    if acc_series:
        line_chart(out / "compare_accuracy.svg", acc_series,
                   title="Test accuracy by scheduler", xlabel="epoch",
                   ylabel="test accuracy")
    return 0


def cmd_epsilon_sweep(args) -> int:
    variants = [(f"eps={eps:g}", {"scheduler.kind": "neve", "scheduler.epsilon": eps})
                for eps in args.eps_grid]
    base = resolve_config(args, variants)
    out, runs = _run_variants(args, base, variants, "epsilon_sweep.csv", "epsilon")
    grid = [cfg.scheduler.epsilon for cfg, _, _ in runs]
    line_chart(out / "epsilon_stop_epochs.svg",
               [("epochs to stop", grid, [s.mean_stop for _, _, s in runs])],
               title="Training length vs stop threshold", xlabel="epsilon",
               ylabel="epochs", log_x=True)
    line_chart(out / "epsilon_accuracy.svg",
               [("test accuracy", grid, [s.mean_acc for _, _, s in runs])],
               title="Accuracy vs stop threshold", xlabel="epsilon",
               ylabel="test accuracy", log_x=True)
    return 0


def cmd_aux_sweep(args) -> int:
    variants = [(f"val={frac:g}",
                 {"scheduler.kind": "fixed", "dataset.validation_fraction": frac,
                  "aux.sources": (), "dump_velocity": False})
                for frac in args.val_fracs]
    variants += [(f"{source}/{count}",
                  {"scheduler.kind": "neve", "aux.sources": (source,), "aux.count": count})
                 for source in args.aux_sources for count in args.aux_sizes]
    base = resolve_config(args, variants)
    for _, overrides in variants:   # a heldout source reads the split: 0.1 when none is set
        if "heldout" in overrides["aux.sources"] and base.dataset.validation_fraction <= 0:
            overrides["dataset.validation_fraction"] = 0.1
    out, runs = _run_variants(args, base, variants, "aux_sweep.csv", "setting")
    frac_rows = [(cfg.dataset.validation_fraction, s.mean_acc)
                 for cfg, _, s in runs if cfg.scheduler.kind == "fixed"]
    if frac_rows:
        line_chart(out / "accuracy_vs_val_fraction.svg",
                   [("test accuracy", [r[0] for r in frac_rows],
                     [r[1] for r in frac_rows])],
                   title="Cost of holding out training data",
                   xlabel="validation fraction", ylabel="test accuracy")
    by_source = {}
    for cfg, _, s in runs:
        if cfg.scheduler.kind == "neve":
            counts, accs = by_source.setdefault(cfg.aux.sources[0], ([], []))
            counts.append(cfg.aux.count)
            accs.append(s.mean_acc)
    if by_source:
        line_chart(out / "accuracy_vs_aux_size.svg",
                   [(source, counts, accs) for source, (counts, accs) in by_source.items()],
                   title="Accuracy vs auxiliary-set size", xlabel="aux samples",
                   ylabel="test accuracy", log_x=True)
    return 0


def cmd_epsilon_analysis(args) -> int:
    if not args.eps_grid:
        raise ConfigError("--eps-grid lists no epsilon")
    for eps in args.eps_grid:
        check_value("--eps-grid", eps, "(0, 1)")
    if args.svg and (Path(args.svg).is_dir() or not Path(args.svg).parent.is_dir()):
        raise ConfigError(f"--svg {args.svg} is not a file in an existing directory")
    rows = [(f"{eps:g}", f"{epsilon_analysis(eps).max_delta:.6g}") for eps in args.eps_grid]
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
    variants = [(f"{kind}/{sched}", {"optimizer.kind": kind, **lr, "scheduler.kind": sched})
                for kind, lr in (("sgd", {}), ("adam", {"optimizer.lr": args.adam_lr}))
                for sched in ("neve", "fixed")]
    base = resolve_config(args, variants)
    out, runs = _run_variants(args, base, variants, "optim_compare.csv",
                              "optimizer/scheduler")
    vel_series = []
    for cfg, results, _ in runs:   # the neve variants make a config without sources exit 2
        vs = results[0].velocity_series.get(cfg.aux.sources[0])
        if cfg.scheduler.kind == "neve" and vs:
            vel_series.append((cfg.optimizer.kind, list(range(1, len(vs) + 1)), vs))
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
    p.set_defaults(func=cmd_aux_sweep)

    p = sub.add_parser("epsilon-analysis",
                       help="closed-form worst-case softmax variation table")
    p.add_argument("--eps-grid", type=_parse_floats, dest="eps_grid", default=(1e-3,))
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
    except OSError as exc:   # creating or writing run outputs, or reading a data file
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
