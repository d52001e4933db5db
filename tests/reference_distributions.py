"""Frozen copy of the ThresholdDistribution constructors and evaluators
before they shared one cell interpolator: node lists built by append
loops, and separate right- and left-continuous evaluators.  Constructors
return the (grid, values) pair; evaluators take it.  The tests compare the
current class against them; they are not used by the package.
"""

from __future__ import annotations

import numpy as np


def step_function(locations, levels, domain) -> tuple[np.ndarray, np.ndarray]:
    locations = np.asarray(locations, dtype=float)
    levels = np.asarray(levels, dtype=float)
    lo, hi = domain
    xs = [lo]
    vs = [0.0 if locations[0] > lo else levels[0]]
    for loc, lev in zip(locations, levels):
        prev = vs[-1]
        xs.extend([loc, loc])
        vs.extend([prev, lev])
    xs.append(hi)
    vs.append(levels[-1])
    return np.array(xs), np.array(vs)


def from_quantiles(set_points, domain) -> tuple[np.ndarray, np.ndarray]:
    z = np.sort(np.asarray(set_points, dtype=float))
    n = len(z)
    locs, levels = [], []
    for k, zv in enumerate(z):
        if locs and zv == locs[-1]:
            levels[-1] = (k + 1) / n
        else:
            locs.append(zv)
            levels.append((k + 1) / n)
    return step_function(np.array(locs), np.array(levels), domain)


def evaluate(x, values, zq):
    zq = np.asarray(zq, dtype=float)
    idx = np.searchsorted(x, zq, side="right") - 1
    out = np.where(idx < 0, 0.0, values[np.clip(idx, 0, len(x) - 1)])
    i0 = np.clip(idx, 0, len(x) - 2)
    x0, x1 = x[i0], x[i0 + 1]
    v0, v1 = values[i0], values[i0 + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(x1 > x0, (zq - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
    interp = v0 + np.clip(frac, 0.0, 1.0) * (v1 - v0)
    inside = (idx >= 0) & (idx < len(x) - 1)
    out = np.where(inside, interp, out)
    out = np.where(zq >= x[-1], values[-1], out)
    out = np.where(zq < x[0], 0.0, out)
    return out if out.ndim else float(out)


def left_values(x, v, zq):
    zq = np.asarray(zq, dtype=float)
    idx = np.searchsorted(x, zq, side="left")
    idx_c = np.clip(idx, 1, len(x) - 1)
    x0, x1 = x[idx_c - 1], x[idx_c]
    v0, v1 = v[idx_c - 1], v[idx_c]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(x1 > x0, (zq - x0) / np.where(x1 > x0, x1 - x0, 1.0), 1.0)
    out = v0 + np.clip(t, 0.0, 1.0) * (v1 - v0)
    out = np.where(idx == 0, 0.0, out)
    out = np.where(zq > x[-1], v[-1], out)
    return out if out.ndim else float(out)
