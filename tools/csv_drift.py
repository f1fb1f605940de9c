"""The largest absolute drift per column between two metrics CSVs, or between
the run CSVs of two `runs/` directories.

Run CSVs pair up by name without their trailing run hash
(`<name>__<label>__s<k>__<hash>.csv`), so the runs of two results versions
are compared with each other. Cells are compared as floats: two NaNs are no
drift, a NaN against a number is an infinite one. A cell that is not a float
(a domain or config label, the empty mean of a config whose runs all failed)
is compared as text: equal cells are no drift, unequal ones an infinite one.
Run from the repository root:

    python tools/csv_drift.py A B

It prints one line per column, in header order, and exits 2 when a path is
neither a CSV file nor a directory holding some, when a CSV is empty or has a
row whose cell count is not its header's (naming the file and row), or when
the two sides do not pair up (other runs, headers or row counts).
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _csvs(path: Path) -> dict[str, Path]:
    """The CSVs to compare, keyed by run name without its hash."""
    if path.is_file():
        return {"": path}
    found = {p.stem.rsplit("__", 1)[0]: p for p in sorted(path.glob("*.csv"))}
    if not found:  # a missing path too
        raise ValueError(f"no CSVs at {path}")
    return found


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows; raises ValueError for an empty file or a row
    whose cell count is not its header's (zip would drop the missing cells)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    for n, row in enumerate(rows[1:], 2):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path} row {n} has {len(row)} cells, its header "
                             f"{len(rows[0])}")
    return rows[0], rows[1:]


def _gap(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y)


def drift(a: Path, b: Path) -> dict[str, float]:
    """Largest |a - b| per column over every paired CSV and row; raises
    ValueError for a path that is neither a file nor a directory with CSVs,
    for an empty or ragged CSV, or when the two sides do not pair up."""
    left, right = _csvs(Path(a)), _csvs(Path(b))
    if left.keys() != right.keys():
        raise ValueError(f"runs on one side only: {sorted(left.keys() ^ right.keys())}")
    largest: dict[str, float] = {}
    for key in left:
        (header, rows_a), (header_b, rows_b) = _read(left[key]), _read(right[key])
        if header != header_b or len(rows_a) != len(rows_b):
            raise ValueError(f"{left[key].name} and {right[key].name} differ in their "
                             f"header or row count")
        for row_a, row_b in zip(rows_a, rows_b):
            for column, x, y in zip(header, row_a, row_b):
                largest[column] = max(largest.get(column, 0.0), _gap(x, y))
    return largest


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/csv_drift.py A B", file=sys.stderr)
        return 2
    try:
        largest = drift(Path(args[0]), Path(args[1]))
    except ValueError as exc:
        print(f"csv_drift: {exc}", file=sys.stderr)
        return 2
    width = max((len(c) for c in largest), default=6)
    for column, value in largest.items():
        print(f"{column:<{width}} {value:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
