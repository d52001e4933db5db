"""Frozen copy of the perfect sampler before draws ran in lockstep: one
draw at a time, a Python loop over its segments with one flow call each,
and a path sampler that rebuilt its tables on every call.  Its flow and
path sampler are frozen here too.  The tests compare the current
cftp_samples and optimize_thresholds against it; it is not used by the
package.  So are the per-sample generators built one SeedSequence hash
pair at a time (child_rngs) and the smoothing quadrature over the whole
kernel at once (smooth_distribution), before both were vectorized.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from zpolicy.cftp import CftpConfig, JointSample, estimate_joint_cost
from zpolicy.costs import CostReport
from zpolicy.distributions import ThresholdDistribution
from zpolicy.errors import NoCoalescence
from zpolicy.model import _birth_death_generator, stationary_law
from zpolicy.simulate import child_seed

_COALESCE_TOL = 1e-9
_CHUNK = 64


def exact_flow(x, z, theta, h, c, ci, dt: float, wind: int):
    """The flow with one wind state common to every load."""
    if wind == 0:
        park = np.minimum(z, theta)
        heated = np.minimum(park, x + h * dt)
        cooled = np.maximum(park, x - c * dt)
        return np.where(x > park, cooled, np.where(x < park, heated, x))
    t_hit = np.where(x > theta, (x - theta) / c, 0.0)
    above = np.where(dt <= t_hit, x - c * dt,
                     np.maximum(0.0, theta - ci * np.maximum(dt - t_hit, 0.0)))
    below = np.maximum(0.0, x - ci * dt)
    return np.where(x > theta, above, below)


def factor_path(generator: np.ndarray, state: int, n: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` jumps of one factor chain, its tables built on every call."""
    rates = -np.diag(generator)
    exits = np.clip(generator, 0.0, None)
    np.fill_diagonal(exits, 0.0)
    variates = rng.standard_exponential(n)
    branching = bool(((exits > 0).sum(axis=0) > 1).any())
    u = rng.random(n) if branching else np.zeros(1)
    step = np.empty((len(u), len(rates)), dtype=np.int64)
    for s in range(len(rates)):
        t = np.flatnonzero(exits[:, s])
        if len(t) == 0:
            step[:, s] = s
            continue
        cum = np.cumsum(exits[t, s]) / exits[t, s].sum()
        step[:, s] = t[np.minimum(np.searchsorted(cum, u, side="right"), len(t) - 1)]
    states = np.empty(n + 1, dtype=np.int64)
    states[0] = state
    if branching:
        span = 1
        while span < n:
            step[span:] = np.take_along_axis(step[span:], step[:-span], axis=1)
            span *= 2
        states[1:] = step[:, state]
    else:
        f, m = step[0], 1
        while m <= n:
            states[m:2 * m] = f[states[:min(m, n + 1 - m)]]
            f, m = f[f], 2 * m
    scales = np.full(len(rates), np.inf)
    np.divide(1.0, rates, out=scales, where=rates > 0)
    return np.cumsum(variates * scales[states[:-1]]), states


def _extend(chain: tuple, generator: np.ndarray, age: float,
            rng: np.random.Generator) -> tuple:
    ages, states = chain
    while ages[-1] < age:
        more, new = factor_path(generator, int(states[-1]), _CHUNK, rng)
        ages = np.concatenate([ages, ages[-1] + more])
        states = np.concatenate([states, new[1:]])
    return ages, states


def cftp_sample(config: CftpConfig, rng: np.random.Generator | None = None) -> JointSample:
    """One exact draw from the joint stationary distribution."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_loads
    comfort_rates = config.comfort_rates[:1] if config.shared_comfort else config.comfort_rates
    generators = [_birth_death_generator(r) for r in (config.wind_rates, *comfort_rates)]
    chains = [(np.zeros(1), np.array([rng.choice(len(q), p=stationary_law(q))]))
              for q in generators]
    h, c, z, levels, rates = config._tables()
    loads = np.arange(n)
    owner = 1 + (np.zeros_like(loads) if config.shared_comfort else loads)
    h2, c2, z2 = (np.concatenate([v, v]) for v in (h, c, z))
    top = np.array([p.theta_max for p in config.load_params])

    if config.initial_horizon is not None:
        horizon = float(config.initial_horizon)
    else:
        horizon = 4.0 * max(p.theta_max / min(p.c, p.h) for p in config.load_params)

    for _ in range(config.max_doublings):
        chains = [_extend(ch, q, horizon, rng) for ch, q in zip(chains, generators)]
        bounds = np.unique(np.concatenate([[horizon]] + [a[a < horizon] for a, _ in chains]))
        mid = 0.5 * (bounds[:-1] + bounds[1:])
        seg = np.array([s[np.searchsorted(a, mid) - 1] for a, s in chains]).T[::-1]
        wind = seg[:, 0]
        theta = np.tile(levels[loads, seg[:, owner]], 2)
        ci = np.tile(rates[loads, wind[:, None]], 2)
        x = np.concatenate([top, np.zeros(n)])
        for k, (w, dt) in enumerate(zip(wind.tolist(), np.diff(bounds)[::-1].tolist())):
            x = exact_flow(x, z2, theta[k], h2, c2, ci[k], dt, w)
            if (x[n:] > x[:n] + 1e-12).any():
                raise AssertionError("sandwich violated; flow is not monotone")
        if np.all(x[:n] - x[n:] <= _COALESCE_TOL):
            now = np.array([s[0] for _, s in chains])
            return JointSample(temperatures=x[:n].copy(), wind=int(now[0]),
                               comfort=now[owner], horizon=horizon)
        horizon *= 2.0
    raise NoCoalescence(f"no coalescence by horizon {horizon}")


def optimize_thresholds(config: CftpConfig, gamma: float, n_samples: int = 200,
                        sweeps: int = 2, tol: float = 0.5,
                        golden_iters: int = 12) -> tuple[np.ndarray, CostReport]:
    """Coordinate descent with golden-section line searches, on common
    random numbers drawn one sample at a time."""
    z = np.array(config.set_points, dtype=float)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def report(zv: np.ndarray) -> CostReport:
        cfg = replace(config, set_points=tuple(float(v) for v in zv))
        samples = [cftp_sample(cfg, np.random.default_rng(child_seed(config.seed, k)))
                   for k in range(n_samples)]
        return estimate_joint_cost(samples, cfg, gamma)

    best = report(z).total
    for _ in range(sweeps):
        for i in range(len(z)):
            theta_top = config.load_params[i].theta_max
            theta_lo = config.load_params[i].comfort_levels[0]
            a, bnd = theta_lo, theta_top
            x1 = bnd - invphi * (bnd - a)
            x2 = a + invphi * (bnd - a)
            z1, z2 = z.copy(), z.copy()
            z1[i], z2[i] = x1, x2
            f1, f2 = report(z1).total, report(z2).total
            for _ in range(golden_iters):
                if bnd - a <= tol:
                    break
                if f1 <= f2:
                    bnd, x2, f2 = x2, x1, f1
                    x1 = bnd - invphi * (bnd - a)
                    z1 = z.copy()
                    z1[i] = x1
                    f1 = report(z1).total
                else:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + invphi * (bnd - a)
                    z2 = z.copy()
                    z2[i] = x2
                    f2 = report(z2).total
            zi = x1 if f1 <= f2 else x2
            fi = min(f1, f2)
            if fi < best:
                z[i] = zi
                best = fi
    return z, report(z)


def child_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """One generator per sample k < n, seeded with child_seed(seed, k)."""
    return [np.random.default_rng(child_seed(seed, k)) for k in range(n)]


def smooth_distribution(u: ThresholdDistribution, bandwidth: float,
                        kernel: str = "box", n_grid: int = 801) -> ThresholdDistribution:
    """The kernel-smoothed distribution, its quadrature on 201 x n_grid arrays."""
    lo, hi = u.domain
    zg = np.linspace(lo, hi, n_grid)
    b = float(bandwidth)
    if not 0.0 < b < np.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {b}")
    # quadrature nodes over the kernel support
    s = np.linspace(-b, b, 201)
    if kernel == "box":
        g = np.full_like(s, 1.0 / (2 * b))
    elif kernel == "triangular":
        g = (1.0 - np.abs(s) / b) / b
    else:
        raise ValueError(f"unknown kernel '{kernel}'")
    g = g / np.trapezoid(g, s)
    # u extended by 0 below and 1 above its domain
    ext = np.where(zg[None, :] - s[:, None] < lo, 0.0,
                   np.where(zg[None, :] - s[:, None] > hi, 1.0,
                            u(np.clip(zg[None, :] - s[:, None], lo, hi))))
    vals = np.trapezoid(g[:, None] * ext, s, axis=0)
    vals = np.clip(vals, 0.0, 1.0)
    vals = np.maximum.accumulate(vals)
    return ThresholdDistribution.from_grid(zg, vals, domain=(lo, hi))
