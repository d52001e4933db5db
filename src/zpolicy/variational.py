"""Optimizer core: Euler-Lagrange candidate, its projection onto the
monotone distribution class, and the fixed-point iteration for middle
comfort levels.

The continuum cost is, up to a constant, int w(z) (u - u_EL)^2 dz, so the
optimal distribution is the w-weighted L2 projection of the clamped
Euler-Lagrange candidate onto nondecreasing [0,1]-valued functions with
pinned boundary values.  On a grid this projection is exactly weighted
isotonic regression: pool-adjacent-violators produces constant stretches
whose pooled means are the equal-area levels kappa of the minimum
principle, and the boundary conditions enter as cost-free jumps at the
ends.  The costate lambda(z) = -2 int_0^z (u* - u_EL) w is reconstructed
only as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import SensitivityCurves, sensitivity_curves
from .distributions import ThresholdDistribution
from .errors import NoConvergence, NotADistribution
from .model import LoadParams, MarkovEnvironment

__all__ = [
    "isotonic_fit",
    "euler_lagrange",
    "project",
    "project_detailed",
    "ProjectionResult",
    "fixed_point",
    "FixedPointResult",
    "costate",
]


def isotonic_fit(y: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the fitted nondecreasing values and the block partition as
    (start, stop) index pairs (stop exclusive); single points are their own
    blocks, pooled stretches carry the weighted block mean.
    """
    y = np.asarray(y, dtype=float)
    w = np.clip(np.asarray(weights, dtype=float), 1e-300, None)
    n = len(y)
    means = []          # block mean stack
    wsum = []
    starts = []
    for i in range(n):
        means.append(y[i])
        wsum.append(w[i])
        starts.append(i)
        while len(means) > 1 and means[-2] > means[-1]:
            m1, w1 = means.pop(), wsum.pop()
            starts.pop()
            means[-1] = (means[-1] * wsum[-1] + m1 * w1) / (wsum[-1] + w1)
            wsum[-1] += w1
    out = np.empty(n)
    blocks = []
    bounds = starts + [n]
    for k in range(len(means)):
        out[bounds[k]:bounds[k + 1]] = means[k]
        blocks.append((bounds[k], bounds[k + 1]))
    return out, blocks


def euler_lagrange(curves: SensitivityCurves, gamma: float, v=(), clamp: bool = True) -> np.ndarray:
    """Euler-Lagrange candidate on the curves' grid: the first-order
    stationary point of the quadratic cost, clamped to [0,1] unless
    ``clamp=False``, for any number of wind states and comfort levels.

    ``v`` holds the current guesses of u at the middle comfort levels
    (length C-2, empty for binary comfort); the Theta_j frontier of a
    middle level is weighted by (1 - v_j).  The raw ratio is the one for
    which the completing-the-square identity is exact.  The candidate is
    generally not monotone and does not match the boundary values; that
    is the point of the projection step.
    """
    h, c = curves.params.h, curves.params.c
    n_c = curves.env.n_comfort
    v = tuple(v)
    if len(v) != max(n_c - 2, 0):
        raise ValueError(f"need {max(n_c - 2, 0)} middle-level values, got {len(v)}")
    num = gamma * curves.phi_prime + 2 * c * (c + h) * curves.d_theta[0]
    for j, vj in enumerate(v, start=1):
        num = num + 2 * c * (c + h) * (1.0 - vj) * curves.d_theta[j]
    for i, s_i in enumerate(curves.supplement_rates):
        num = num + 2 * s_i * s_i * curves.d_hat_frontier[i]
    ratio = num / (2.0 * curves.w_safe)
    return np.clip(ratio, 0.0, 1.0) if clamp else ratio


@dataclass(frozen=True)
class ProjectionResult:
    distribution: ThresholdDistribution
    grid_values: np.ndarray
    z_grid: np.ndarray
    blocks: list                 # (start, stop) index pairs
    kappas: np.ndarray           # pooled value per block
    equal_area_residuals: np.ndarray   # per block, relative to int w dz

    @property
    def pooled_intervals(self) -> list[tuple[float, float, float]]:
        """(z_start, z_stop, kappa) for every genuinely pooled block."""
        out = []
        for (b0, b1), kap in zip(self.blocks, self.kappas):
            if b1 - b0 > 1:
                out.append((float(self.z_grid[b0]), float(self.z_grid[b1 - 1]), float(kap)))
        return out


def _cell_weights(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trapezoid cell masses w(z) dz per grid point."""
    dz = np.empty_like(z)
    dz[1:-1] = 0.5 * (z[2:] - z[:-2])
    dz[0] = 0.5 * (z[1] - z[0])
    dz[-1] = 0.5 * (z[-1] - z[-2])
    return np.clip(w, 0.0, None) * dz


def project_detailed(u_el: np.ndarray, curves: SensitivityCurves) -> ProjectionResult:
    """Projection of the clamped candidate onto the admissible class.

    Minimizes int w (u - u_el)^2 over nondecreasing u in [0,1]; the pinned
    boundary values u(0)=0, u(Theta_C)=1 cost nothing (they are jumps of
    zero measure) and are recorded explicitly on the returned distribution.
    """
    u_el = np.asarray(u_el, dtype=float)
    if u_el.min() < -1e-12 or u_el.max() > 1.0 + 1e-12:
        raise NotADistribution("candidate must be clamped to [0,1] before projection")
    zg = curves.z_grid
    cw = _cell_weights(zg, curves.w)
    fit, blocks = isotonic_fit(u_el, cw)
    fit = np.clip(fit, 0.0, 1.0)

    kappas = np.array([fit[b0] for b0, _ in blocks])
    resid = np.empty(len(blocks))
    for k, (b0, b1) in enumerate(blocks):
        num = float(np.sum((kappas[k] - u_el[b0:b1]) * cw[b0:b1]))
        den = float(np.sum(cw[b0:b1]))
        resid[k] = num / den if den > 0 else 0.0

    lo, hi = 0.0, curves.params.theta_max
    xs = np.concatenate([[lo, lo], zg, [hi, hi]])
    vs = np.concatenate([[0.0, fit[0]], fit, [fit[-1], 1.0]])
    dist = ThresholdDistribution(x=xs, values=vs, domain=(lo, hi))
    return ProjectionResult(distribution=dist, grid_values=fit, z_grid=zg,
                            blocks=blocks, kappas=kappas,
                            equal_area_residuals=resid)


def project(u_el: np.ndarray, curves: SensitivityCurves) -> ThresholdDistribution:
    return project_detailed(u_el, curves).distribution


def costate(u_star: np.ndarray, u_el: np.ndarray, curves: SensitivityCurves) -> np.ndarray:
    """Diagnostic costate lambda(z) = -2 int_0^z (u* - u_el) w dz'.

    For the true projection it is nonnegative, returns to zero at the end
    of every pooled block, and vanishes where u* tracks u_el.
    """
    zg = curves.z_grid
    integrand = (np.asarray(u_star) - np.asarray(u_el)) * np.clip(curves.w, 0.0, None)
    cells = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(zg)
    return -2.0 * np.concatenate([[0.0], np.cumsum(cells)])


@dataclass(frozen=True)
class FixedPointResult:
    v_star: np.ndarray             # values of u at the middle comfort levels
    projection: ProjectionResult   # the projection of the candidate at v_star
    trace: list                    # (iteration, coordinate, v, v_up, v_down)
    iterations: int
    residual: float


def fixed_point(env: MarkovEnvironment, params: LoadParams, gamma: float,
                tol: float = 1e-6, max_iter: int = 60, v0: float = 0.5,
                curves: SensitivityCurves | None = None) -> FixedPointResult:
    """Solve v_j = P[u_EL(., v)](Theta_j) for the middle comfort levels.

    Each coordinate is driven by the interval-halving update: the fixed
    point always lies between v and P(v) (the projected level value is
    decreasing in v), so the bracket [v_down, v_up] is valid and at least
    halves every iteration.  With C = 3 there is a single coordinate; for
    more levels the coordinates are swept round-robin, each sweep running
    one bracket refinement per coordinate.  With fewer than three comfort
    levels there is nothing to iterate: the result is the projection of
    the candidate, after 0 iterations and with an empty trace.

    Raises ValueError unless tol is finite and positive.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if curves is None:
        curves = sensitivity_curves(env, params)
    n_mid = max(env.n_comfort - 2, 0)
    level_idx = np.searchsorted(curves.z_grid, params.comfort_levels[1:-1], side="right") - 1

    def project_at(v):
        """Project the candidate at v and read u* at each middle comfort level."""
        res = project_detailed(euler_lagrange(curves, gamma, v), curves)
        return res, res.grid_values[level_idx]

    v = np.full(n_mid, float(v0))
    res, pv = project_at(v)
    v_up = np.maximum(v, pv)
    v_down = np.minimum(v, pv)
    trace = [(0, j, float(v[j]), float(v_up[j]), float(v_down[j])) for j in range(n_mid)]
    it, residual = 0, float(np.max(np.abs(v - pv), initial=0.0))
    if n_mid:
        for it in range(1, max_iter + 1):
            v = 0.5 * (v_up + v_down)
            res, pv = project_at(v)
            v_up = np.minimum(v_up, np.maximum(v, pv))
            v_down = np.maximum(v_down, np.minimum(v, pv))
            for j in range(n_mid):
                trace.append((it, j, float(v[j]), float(v_up[j]), float(v_down[j])))
            residual = float(np.max(np.abs(v - pv)))
            if residual <= tol:
                break
        else:
            if float(np.max(v_up - v_down)) > tol:
                raise NoConvergence(
                    f"bracket {float(np.max(v_up - v_down)):.2e} > tol after {max_iter} iterations")
    return FixedPointResult(v_star=v, projection=res, trace=trace, iterations=it,
                            residual=residual)
