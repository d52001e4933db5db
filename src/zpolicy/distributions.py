"""Monotone threshold distributions u(z): the fraction of the load
continuum whose set-point is at most z.

Members of the admissible class are nondecreasing, take values in [0, 1],
and satisfy u(0) = 0 and u(Theta_C) = 1, with jumps allowed anywhere
including both boundaries.  The representation is a piecewise-linear
function on an ascending grid where a repeated grid value encodes a jump
(left value first, right value second); evaluation is right-continuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADistribution

__all__ = ["ThresholdDistribution"]

_MONO_TOL = 1e-12


@dataclass(frozen=True)
class ThresholdDistribution:
    x: np.ndarray          # ascending, duplicates mark jumps
    values: np.ndarray     # u at each grid entry
    domain: tuple[float, float]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        if x.shape != v.shape or x.ndim != 1 or len(x) < 1:
            raise NotADistribution("grid and values must be equal-length 1-d arrays")
        if np.any(np.diff(x) < -_MONO_TOL):
            raise NotADistribution("grid must be ascending")
        if np.any(np.diff(v) < -1e-9):
            raise NotADistribution("values must be nondecreasing")
        if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
            raise NotADistribution("values must lie in [0, 1]")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_grid(cls, z, u, domain=None) -> "ThresholdDistribution":
        z = np.asarray(z, dtype=float)
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if domain is None:
            domain = (float(z[0]), float(z[-1]))
        return cls(x=z, values=u, domain=domain)

    @classmethod
    def step_function(cls, locations, levels, domain) -> "ThresholdDistribution":
        """Right-continuous step function: u = levels[k] on [locations[k], locations[k+1])."""
        locations = np.asarray(locations, dtype=float)
        levels = np.asarray(levels, dtype=float)
        lo, hi = domain
        # each location is a jump node pair (left value, right value)
        first = 0.0 if locations[0] > lo else levels[0]
        return cls(x=np.concatenate([[lo], np.repeat(locations, 2), [hi]]),
                   values=np.repeat(np.concatenate([[first], levels]), 2), domain=(lo, hi))

    @classmethod
    def from_quantiles(cls, set_points, domain) -> "ThresholdDistribution":
        """Empirical distribution of a finite set-point vector."""
        locs, counts = np.unique(np.asarray(set_points, dtype=float), return_counts=True)
        return cls.step_function(locs, np.cumsum(counts) / counts.sum(), domain)

    @classmethod
    def uniform(cls, domain) -> "ThresholdDistribution":
        lo, hi = domain
        return cls(x=np.array([lo, hi]), values=np.array([0.0, 1.0]), domain=(lo, hi))

    # -- evaluation ----------------------------------------------------

    def _evaluate(self, zq, side: str) -> np.ndarray:
        """u by linear interpolation on the cell that ends at
        searchsorted(x, z, side): 0 before the first node and the last value
        after the last one.  Within the grid, z lies in [x_k, x_k+1) (side
        "right") or (x_k, x_k+1] (side "left"), so the cell is never a jump
        and its width is positive."""
        zq = np.asarray(zq, dtype=float)
        x, v = self.x, self.values
        cell = np.searchsorted(x, zq, side=side) - 1
        i = np.clip(cell, 0, len(x) - 2)
        # the clipped cells may be jumps, but their values are replaced below
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip((zq - x[i]) / (x[i + 1] - x[i]), 0.0, 1.0)
        out = v[i] + t * (v[i + 1] - v[i])
        out = np.where(cell < 0, 0.0, np.where(cell < len(x) - 1, out, v[-1]))
        return out if out.ndim else float(out)

    def __call__(self, zq) -> np.ndarray:
        """Right-continuous evaluation; 0 below and the last value above the grid."""
        return self._evaluate(zq, "right")

    def left_values(self, zq) -> np.ndarray:
        """Left-continuous evaluation u(z-); differs from __call__ only at jumps."""
        return self._evaluate(zq, "left")

    def quantile(self, p) -> np.ndarray:
        """Left-continuous generalized inverse inf{z : u(z) >= p}."""
        p = np.asarray(p, dtype=float)
        v, x = self.values, self.x
        idx = np.searchsorted(v, p, side="left")
        idx = np.clip(idx, 0, len(v) - 1)
        out = x[idx]
        # interpolate along strictly rising (non-jump) cells
        prev = np.clip(idx - 1, 0, len(v) - 1)
        rising = (idx > 0) & (x[idx] > x[prev]) & (v[idx] > v[prev])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (p - v[prev]) / np.where(v[idx] > v[prev], v[idx] - v[prev], 1.0)
        out = np.where(rising, x[prev] + np.clip(t, 0.0, 1.0) * (x[idx] - x[prev]), out)
        return out if out.ndim else float(out)

    def sample_quantiles(self, n: int) -> np.ndarray:
        """Deterministic stratified set-points Z_i = u^{-1}((i - 1/2)/n)."""
        probs = (np.arange(n) + 0.5) / n
        return np.sort(np.atleast_1d(self.quantile(probs)))

    # -- structure ------------------------------------------------------

    @property
    def jumps(self) -> list[tuple[float, float, float]]:
        """Explicit jump set as (location, left value, right value)."""
        out = []
        lo, hi = self.domain
        if self.values[0] > 1e-12 and self.x[0] <= lo + 1e-12:
            out.append((float(self.x[0]), 0.0, float(self.values[0])))
        for k in range(len(self.x) - 1):
            if self.x[k + 1] - self.x[k] <= _MONO_TOL and self.values[k + 1] - self.values[k] > 1e-12:
                out.append((float(self.x[k]), float(self.values[k]), float(self.values[k + 1])))
        if self.values[-1] < 1.0 - 1e-12:
            out.append((hi, float(self.values[-1]), 1.0))
        return out

    def regrid(self, z) -> "ThresholdDistribution":
        """Refine the representation without changing the function.

        The original nodes (including duplicated jump nodes) are kept and
        the new points are inserted with interpolated values, so jumps
        survive re-gridding exactly.
        """
        extra = np.setdiff1d(np.asarray(z, dtype=float), self.x)
        xs = np.concatenate([self.x, extra])
        vs = np.concatenate([self.values, self(extra)])
        order = np.argsort(xs, kind="stable")
        return ThresholdDistribution(x=xs[order], values=vs[order],
                                     domain=self.domain)
