"""Frozen copy of the CLI's row-by-row CSV writer and of the row builder
its threshold-distribution tables had, which the tests compare the column
writer's files against; they are not used by the package."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])


def _dist_rows(u):
    rows = [(float(x), float(v), "") for x, v in zip(u.x, u.values)]
    for loc, left, right in u.jumps:
        rows.append((float(loc), float(right), f"jump from {left!r}"))
    return rows
