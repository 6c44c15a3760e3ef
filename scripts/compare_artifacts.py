#!/usr/bin/env python3
"""Largest change per CSV column between two output directories.

For every CSV file found in both directories (matched by its path relative
to each), prints one line per column: the number of rows that differ, the
largest absolute change |b - a| and the largest relative change
|b - a| / max(|a|, |b|).  Equal values, including equal infinities and two
NaNs, count as unchanged; a NaN against a number counts as an infinite
change.  This explains a difference that `diff A/SHA256SUMS B/SHA256SUMS`
reports, for example a last-digit move of a cancellation-limited value; it
does not replace that byte-identity check.

A second table says for each such file whether its data lines (the lines
not starting with '#') are byte-identical.  It separates a move of the
header lines alone (a new config hash) from a move of the data, including
a -0/0 change that the value comparison counts as equal.

Files present in only one directory, and files whose columns or row counts
differ, are listed and make the exit status 1.

Usage: python3 scripts/compare_artifacts.py A B
"""

import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and a (rows, columns) float array; '#' lines skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    if len(lines) == 1:
        return names, np.zeros((0, len(names)))
    return names, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def data_lines(path: Path) -> list[bytes]:
    """The file's lines, terminators kept, except those starting with '#'."""
    return [ln for ln in path.read_bytes().splitlines(keepends=True)
            if not ln.startswith(b"#")]


def column_changes(a: np.ndarray, b: np.ndarray) -> tuple[int, float, float]:
    """(changed rows, max absolute change, max relative change)."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0, 0.0, 0.0
    a, b = a[~same], b[~same]
    with np.errstate(invalid="ignore"):
        diff = np.abs(b - a)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    diff[np.isnan(diff)] = np.inf
    rel[np.isnan(rel)] = np.inf
    return int(a.size), float(diff.max()), float(rel.max())


def compare(root_a: Path, root_b: Path) -> int:
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*.csv")}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*.csv")}
    status = 0
    for rel in sorted(files_a ^ files_b):
        side = "A" if rel in files_a else "B"
        print(f"{rel.as_posix()}: only in {side}")
        status = 1
    print(f"{'file':<48} {'column':<20} {'rows':>6} {'max_abs':>10} "
          f"{'max_rel':>10}")
    for rel in sorted(files_a & files_b):
        names_a, a = read_csv(root_a / rel)
        names_b, b = read_csv(root_b / rel)
        if names_a != names_b or a.shape != b.shape:
            print(f"{rel.as_posix()}: columns or row counts differ")
            status = 1
            continue
        for k, name in enumerate(names_a):
            rows, dabs, drel = column_changes(a[:, k], b[:, k])
            print(f"{rel.as_posix():<48} {name:<20} {rows:>6} {dabs:>10.3g} "
                  f"{drel:>10.3g}")
    print(f"\n{'file':<48} data_lines")
    for rel in sorted(files_a & files_b):
        same = data_lines(root_a / rel) == data_lines(root_b / rel)
        print(f"{rel.as_posix():<48} {'identical' if same else 'differ'}")
    return status


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    return compare(Path(sys.argv[1]), Path(sys.argv[2]))


if __name__ == "__main__":
    sys.exit(main())
