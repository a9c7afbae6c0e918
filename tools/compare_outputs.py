"""Compare the outputs of two neve run directories.

Usage: python3 tools/compare_outputs.py DIR_A DIR_B

Pairs every file under the two directories by relative path. CSV files
(per-epoch records, summaries, epsilon sweeps, velocity dumps) are
compared line for line, byte for byte, line endings and quoting included,
setting aside only the ``wall_seconds`` cell; every other file
(``config.json``, SVG charts) byte for byte. A file is reported as
"identical", or with the largest relative and absolute difference of each
numeric column that differs. The last line says whether the decision, learning-rate and
accuracy columns match exactly. Exit status: 0 when every file is
identical, 1 when any differs, 2 on a usage error or when neither
directory holds a CSV file. Standard library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

IGNORED = {"wall_seconds"}


def is_key_column(name: str) -> bool:
    """Columns that must match exactly for two runs to behave the same."""
    return name in ("decision", "learning_rate") or "acc" in name


def cell_diff(a: str, b: str) -> tuple[float, float] | None:
    """(|a - b| / max(|a|, |b|), |a - b|) of two numeric cells; None if
    either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0, 0.0
    return abs(x - y) / max(abs(x), abs(y)), abs(x - y)


def compare_file(path_a: Path, path_b: Path) -> tuple[dict, list[str]]:
    """Per differing column, the max (relative, absolute) difference, or
    None if the column is not numeric; and the structural problems (header,
    row count, line end or cell count mismatch). Lines are split at every
    comma, so a quoted cell never equals an unquoted one."""
    lines_a = path_a.read_bytes().splitlines(keepends=True)
    lines_b = path_b.read_bytes().splitlines(keepends=True)
    if not lines_a or not lines_b or lines_a[0] != lines_b[0]:
        return {}, ["headers differ"]
    header = lines_a[0].rstrip(b"\r\n").decode().split(",")
    problems = [] if len(lines_a) == len(lines_b) else [
        f"row counts differ: {len(lines_a) - 1} vs {len(lines_b) - 1}"]
    diffs: dict = {}
    misshapen = 0
    for line_a, line_b in zip(lines_a[1:], lines_b[1:]):
        body_a, body_b = line_a.rstrip(b"\r\n"), line_b.rstrip(b"\r\n")
        cells_a, cells_b = body_a.decode().split(","), body_b.decode().split(",")
        if line_a[len(body_a):] != line_b[len(body_b):] or len(cells_a) != len(cells_b):
            misshapen += 1
            continue
        for name, a, b in zip(header, cells_a, cells_b):
            if name in IGNORED or a == b:
                continue
            d = cell_diff(a, b)
            prev = diffs.get(name, (0.0, 0.0))
            diffs[name] = (None if d is None or prev is None
                           else (max(prev[0], d[0]), max(prev[1], d[1])))
    if misshapen:
        problems.append(f"line ends or cell counts differ on {misshapen} rows")
    return diffs, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    csvs = {rel for rel in files_a | files_b if rel.suffix == ".csv"}
    if not csvs:
        print(f"no CSV files under {dir_a} or {dir_b}", file=sys.stderr)
        return 2
    same = files_a == files_b
    keys_match = csvs <= files_a & files_b
    worst = (0.0, "")
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
    for rel in sorted(files_a & files_b):
        if rel.suffix != ".csv":
            identical = (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()
            same = same and identical
            print(f"{rel}: {'identical' if identical else 'bytes differ'}")
            continue
        diffs, problems = compare_file(dir_a / rel, dir_b / rel)
        if not diffs and not problems:
            print(f"{rel}: identical")
            continue
        same = False
        keys_match = keys_match and not problems
        parts = problems[:]
        for name, d in diffs.items():
            keys_match = keys_match and not is_key_column(name)
            if d is None:
                parts.append(f"{name} differs")
            else:
                parts.append(f"{name} max rel diff {d[0]:.3g} (abs {d[1]:.3g})")
                worst = max(worst, (d[0], f"{rel}: {name}"))
        print(f"{rel}: " + "; ".join(parts))
    if same:
        print(f"identical ({len(csvs)} CSV files, wall_seconds ignored; "
              f"{len(files_a) - len(csvs)} other files byte for byte)")
        return 0
    print(f"differ; largest relative difference {worst[0]:.3g} ({worst[1] or 'none numeric'})")
    print("decision, learning_rate and accuracy columns "
          + ("match" if keys_match else "DO NOT match"))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
