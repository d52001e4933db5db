"""Cost evaluation: discomfort integral Phi, point-mass sensitivity curves,
the normalized finite-ensemble cost, and the continuum cost functional J[u].

Normalization convention: the discomfort weight is pre-scaled as
gamma^(N) = gamma * N and costs are divided by N^2, so the finite cost of
quantile-sampled set-points converges to J[u] as N grows.

Measure conventions at comfort-level breakpoints.  The point-mass curves
are discontinuous in z exactly at the comfort levels (mass relocates from
the set-point to the comfort level as z crosses it).  All cost formulas
here use the one-sided derivatives and drop the breakpoint jump from the
frontier measures; the finite-ensemble telescopes evaluate curve values
through a "de-jumped" continuous extension so that both routes integrate
the same measure and the finite cost converges to the continuum one.
The all-loads-violating event is measured by the exact wind-off violation
tail (its nesting under stochastic dominance is exact), matching the
single-load cost formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import ThresholdDistribution
from .errors import UnsortedInput
from .model import LoadParams, MarkovEnvironment
from .stationary import PointMassCurves, point_mass_curves

__all__ = [
    "CostReport",
    "SensitivityCurves",
    "default_z_grid",
    "phi",
    "sensitivity_curves",
    "finite_cost",
    "continuum_cost",
]

_W_EPS = 1e-12


@dataclass(frozen=True)
class CostReport:
    """Power-variability cost, unweighted discomfort, and the gamma-weighted total."""

    power_cost: float
    discomfort_cost: float
    gamma: float
    std_error: float | None = None

    @property
    def total(self) -> float:
        return self.power_cost + self.gamma * self.discomfort_cost


@dataclass(frozen=True)
class SensitivityCurves:
    """Curves over a set-point grid driving the variational problem.

    d1        : -d/dz of the parked-at-set-point mass
    d_theta   : per comfort level j, -d/dz of the parked-at-Theta_j mass
    d_hat     : -d/dz P(X_z > Theta_1)  (set-point tails grow with z, so this
                is <= 0; the violation-frontier densities below are its
                per-wind-state negations)
    d_hat_frontier : per intermediate wind state, +d/dz of the violation tail
    w         : quadratic weight h^2 d1 + c^2 sum_j d_theta[j]
                + sum_i s_i^2 d_hat_frontier[i], where s_i = c (1 - i/(W-1))
                is the grid top-up while force-cooling in wind state i
    """

    z_grid: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    d1: np.ndarray
    d_theta: np.ndarray          # (n_comfort, n)
    d_hat: np.ndarray
    d_hat_frontier: np.ndarray   # (max(W-2, 0), n)
    w: np.ndarray
    delta_z: np.ndarray          # de-jumped continuous extensions (see module doc)
    delta_theta: np.ndarray
    tail_wind_off: np.ndarray
    tail_intermediate: np.ndarray
    env: MarkovEnvironment
    params: LoadParams
    w_nonpositive: bool = field(default=False)

    @property
    def w_safe(self) -> np.ndarray:
        return np.clip(self.w, _W_EPS, None)

    @property
    def supplement_rates(self) -> np.ndarray:
        """Grid top-up rate s_i per intermediate wind state i = 1..W-2."""
        return _supplement_rates(self.params.c, self.env.n_wind)

    def interp(self, curve: np.ndarray, zq) -> np.ndarray:
        return np.interp(np.asarray(zq, dtype=float), self.z_grid, curve)


def _supplement_rates(c: float, n_wind: int) -> np.ndarray:
    """s_i = c (1 - i/(W-1)), the grid top-up while force-cooling in each
    intermediate wind state i = 1..W-2."""
    i = np.arange(1, n_wind - 1, dtype=float)
    return c * (1.0 - i / (n_wind - 1))


def default_z_grid(params: LoadParams, step: float | None = None) -> np.ndarray:
    """Ascending grid over (0, Theta_C] with every comfort level included
    and uniform spacing inside each comfort interval."""
    top = params.theta_max
    if step is None:
        step = top / 400.0
    elif not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    pts = [np.array([step * 0.5])] if params.comfort_levels[0] > step else []
    lo = 0.0
    for theta in params.comfort_levels:
        n = max(int(np.ceil((theta - lo) / step)), 2)
        seg = np.linspace(lo, theta, n + 1)[1:]
        pts.append(seg)
        lo = theta
    return np.concatenate(pts)


def _segment_slices(z_grid: np.ndarray, levels) -> list[slice]:
    """Index ranges of the comfort intervals; a grid point at Theta_j belongs
    to the left interval (curve values there are left limits)."""
    out = []
    start = 0
    for theta in levels:
        stop = int(np.searchsorted(z_grid, theta, side="right"))
        if stop > start:
            out.append(slice(start, stop))
            start = stop
    if start < len(z_grid):
        out.append(slice(start, len(z_grid)))
    return out


def _dejump(curve: np.ndarray, slices: list[slice]) -> np.ndarray:
    """Shift each left branch so the curve is continuous across breakpoints."""
    out = curve.copy()
    for k in range(len(slices) - 1, 0, -1):
        left, right = slices[k - 1], slices[k]
        gap = out[right.start] - out[left.stop - 1]
        out[:left.stop] += gap
    return out


def _per_segment_gradient(y: np.ndarray, z: np.ndarray, slices) -> np.ndarray:
    out = np.empty_like(y)
    for sl in slices:
        if sl.stop - sl.start >= 2:
            out[sl] = np.gradient(y[sl], z[sl])
        else:
            out[sl] = 0.0
    return out


def phi(z: float, env: MarkovEnvironment, params: LoadParams,
        grid_step: float | None = None) -> float:
    """Discomfort integral E[((X_z - Theta_M)^+)^2] under the stationary law."""
    return float(point_mass_curves(env, params, [z], grid_step=grid_step).phi[0])


def sensitivity_curves(env: MarkovEnvironment, params: LoadParams,
                       z_grid=None, grid_step: float | None = None,
                       workers: int = 1,
                       raw: PointMassCurves | None = None) -> SensitivityCurves:
    """Differentiate the point-mass curves into the frontier densities.

    Central differences inside each comfort interval, one-sided at the
    interval ends; the breakpoint discontinuities never enter a stencil.
    A non-positive quadratic weight is recorded (w_nonpositive) rather than
    raised; divisions use the eps-clamped weight.  ``workers`` is accepted
    for compatibility and has no effect.
    """
    if raw is None:
        if z_grid is None:
            z_grid = default_z_grid(params)
        raw = point_mass_curves(env, params, z_grid, grid_step=grid_step)
    z_grid = raw.z_grid
    levels = params.comfort_levels
    slices = _segment_slices(z_grid, levels)

    delta_z = _dejump(raw.delta_z, slices)
    delta_theta = np.array([_dejump(raw.delta_theta[j], slices)
                            for j in range(env.n_comfort)])
    tail_off = _dejump(raw.tail_wind_off, slices)
    tail_mid = np.array([_dejump(t, slices) for t in raw.tail_intermediate]) \
        if raw.tail_intermediate.size else raw.tail_intermediate

    d1 = -_per_segment_gradient(delta_z, z_grid, slices)
    d_theta = np.array([-_per_segment_gradient(delta_theta[j], z_grid, slices)
                        for j in range(env.n_comfort)])
    phi_prime = _per_segment_gradient(raw.phi, z_grid, slices)
    d_hat = -_per_segment_gradient(_dejump(raw.tail, slices), z_grid, slices)
    d_hat_frontier = np.array([_per_segment_gradient(t, z_grid, slices)
                               for t in tail_mid]) \
        if tail_mid.size else np.zeros((0, len(z_grid)))

    h, c = params.h, params.c
    w = h * h * d1 + c * c * d_theta.sum(axis=0)
    for s_i, frontier in zip(_supplement_rates(c, env.n_wind), d_hat_frontier):
        w = w + s_i * s_i * frontier

    return SensitivityCurves(
        z_grid=z_grid, phi=raw.phi, phi_prime=phi_prime,
        d1=d1, d_theta=d_theta, d_hat=d_hat, d_hat_frontier=d_hat_frontier,
        w=w, delta_z=delta_z, delta_theta=delta_theta,
        tail_wind_off=tail_off,
        tail_intermediate=tail_mid if tail_mid.size else np.zeros((0, len(z_grid))),
        env=env, params=params,
        w_nonpositive=bool((w <= 0).any()),
    )


def finite_cost(set_points, env: MarkovEnvironment, params: LoadParams,
                gamma: float, curves: SensitivityCurves | None = None) -> CostReport:
    """Normalized cost of a finite ascending set-point vector.

    Uses only single-load stationary quantities, combined through the
    stochastic-dominance frontier telescopes: parked sets fill bottom-up,
    violation sets fill top-down, so squared ensemble draws reduce to sums
    of marginal masses.  Curve values are linearly interpolated from one
    shared curve build (O(dz^2) accurate).
    """
    z = np.asarray(set_points, dtype=float)
    if np.any(np.diff(z) < 0):
        raise UnsortedInput("set-points must be ascending")
    if curves is None:
        curves = sensitivity_curves(env, params)
    n = len(z)
    h, c = params.h, params.c
    k = np.arange(1, n + 1)

    # comfort-top parked frontier: E[(K/N)^2], K = number parked at own set-point
    dz_vals = curves.interp(curves.delta_z, z)
    power = h * h * float(((2 * k - 1) / n**2) @ dz_vals)

    # per lower comfort level: parked-at-Theta_j frontier with violators above
    for j in range(env.n_comfort - 1):
        m_vals = curves.interp(curves.delta_theta[j], z)
        a = ((h + c) - (k / n) * c) ** 2           # draw with k parked, N-k violating
        inc = m_vals[:-1] - m_vals[1:]
        power += float(a[:-1] @ inc) + h * h * m_vals[-1]
    # all loads violating, wind off (exact nesting via the tail)
    power += (h + c) ** 2 * float(curves.interp(curves.tail_wind_off, z[0]))

    # intermediate wind states: violators draw the top-up s_i each
    for i, s_i in enumerate(curves.supplement_rates):
        tails = curves.interp(curves.tail_intermediate[i], z[::-1])
        power += s_i * s_i * float(((2 * k - 1) / n**2) @ tails)

    disc = float(curves.interp(curves.phi, z).sum()) / n
    return CostReport(power_cost=power, discomfort_cost=disc, gamma=gamma)


def continuum_cost(u: ThresholdDistribution, curves: SensitivityCurves,
                   gamma: float) -> CostReport:
    """Continuum cost functional J[u] on the curves' grid.

    The discomfort term integrates by parts, int Phi u' dz =
    Phi(Theta_C) - int Phi' u dz, so jumps of u need no mollification.
    u enters the integrands through its left limits: point values at jump
    locations have zero measure and must not leak into the quadrature.
    """
    zg = curves.z_grid
    uv = np.asarray(u.left_values(zg), dtype=float)
    h, c = curves.params.h, curves.params.c

    power_density = (h * uv) ** 2 * curves.d1
    for j in range(curves.env.n_comfort - 1):
        power_density = power_density + ((h + c) - c * uv) ** 2 * curves.d_theta[j]
    for i, s_i in enumerate(curves.supplement_rates):
        power_density = power_density + (s_i * (1.0 - uv)) ** 2 * curves.d_hat_frontier[i]
    power = float(np.trapezoid(power_density, zg))
    # boundary constants: the top load is parked in every all-parked event
    power += h * h * float(curves.delta_z[-1] + curves.delta_theta[:, -1].sum())

    disc = float(curves.phi[-1] - np.trapezoid(curves.phi_prime * uv, zg))
    return CostReport(power_cost=power, discomfort_cost=disc, gamma=gamma)
