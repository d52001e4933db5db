"""Perfect sampling of the joint stationary state for heterogeneous loads
by monotone coupling from the past.

Loads share the wind process, which may be any birth-death chain (in wind
state i of W a load cools at i*c/(W-1), with the grid topping up forced
cooling), and own independent comfort-level chains and physical
parameters.  Given the environment path, each temperature evolves by the
model's deterministic monotone flow, so the coupling needs no per-load
randomness: the top chain starts every load at its highest comfort level,
the bottom chain at zero, and both replay the identical environment from
time -T, doubling T until the two flows meet at time 0.  Each segment of
the path advances the stacked (top, bottom) vector of all loads with one
call to ``model.exact_flow``.

The environment chains are birth-death and hence reversible, so the path
seen backward from a stationary time is again a chain with the same
generator: the state at time 0 is drawn from the stationary law and the
path is extended into the past by the simulator's factor-chain sampler
run in reversed time.  Doubling the horizon appends older jumps to the
cached path and never alters the randomness already used, which is
exactly the replay discipline coupling from the past requires.
CftpConfig validates itself on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import CostReport
from .distributions import ThresholdDistribution
from .errors import EmptySamples, NoCoalescence
from .model import (
    LoadParams, _birth_death_generator, exact_flow, power_split, stationary_law,
)
from .simulate import _factor_path, child_seed

__all__ = [
    "CftpConfig",
    "JointSample",
    "cftp_sample",
    "estimate_joint_cost",
    "smooth_distribution",
    "optimize_thresholds",
]

_COALESCE_TOL = 1e-9
_CHUNK = 64          # backward jumps drawn per chain extension


@dataclass(frozen=True)
class CftpConfig:
    """Perfect-sampling experiment: loads share the wind chain and own one
    comfort chain each (or all share the first, with shared_comfort).

    Raises ValueError unless there is at least one load, set_points and
    comfort_rates give one entry per load, each comfort chain has as many
    states as its load has comfort levels, initial_horizon is None or
    finite and positive, and max_doublings is at least 1; raises
    InvalidSetPoint unless every set-point lies in [0, Theta_C] of its load.
    """

    wind_rates: tuple                            # (q_up, q_down) or (up, down) pairs
    load_params: tuple[LoadParams, ...]          # one per load
    comfort_rates: tuple                         # one rate spec per load
    set_points: tuple[float, ...]
    seed: int
    initial_horizon: float | None = None
    max_doublings: int = 24
    shared_comfort: bool = False                 # one comfort chain drives all

    def __post_init__(self):
        n = self.n_loads
        if n < 1:
            raise ValueError("CftpConfig needs at least one load")
        if len(self.set_points) != n or len(self.comfort_rates) != n:
            raise ValueError(f"set_points and comfort_rates need one entry per load ({n}), "
                             f"got {len(self.set_points)} and {len(self.comfort_rates)}")
        for p, rates in zip(self.load_params, self.comfort_rates):
            if _birth_death_generator(rates).shape[0] != len(p.comfort_levels):
                raise ValueError(f"comfort rates {rates} do not give one state per "
                                 f"comfort level {p.comfort_levels}")
        if self.initial_horizon is not None and \
                not (np.isfinite(self.initial_horizon) and self.initial_horizon > 0):
            raise ValueError(f"initial_horizon must be finite and positive, "
                             f"got {self.initial_horizon}")
        if self.max_doublings < 1:
            raise ValueError(f"max_doublings must be at least 1, got {self.max_doublings}")
        for p, z in zip(self.load_params, self.set_points):
            p.check_set_points(z)

    @property
    def n_loads(self) -> int:
        return len(self.load_params)

    def _tables(self):
        """Per-load h, c, set-point, comfort levels (padded with nan) and
        wind cooling rates, as arrays indexed by load."""
        params = self.load_params
        n_wind = _birth_death_generator(self.wind_rates).shape[0]
        n_levels = max(len(p.comfort_levels) for p in params)
        levels = np.full((len(params), n_levels), np.nan)
        for i, p in enumerate(params):
            levels[i, :len(p.comfort_levels)] = p.comfort_levels
        return (np.array([p.h for p in params]), np.array([p.c for p in params]),
                np.array(self.set_points, dtype=float), levels,
                np.array([p.wind_cooling_rates(n_wind) for p in params]))


@dataclass(frozen=True)
class JointSample:
    temperatures: np.ndarray
    wind: int
    comfort: np.ndarray          # per-load comfort level index
    horizon: float               # past horizon that achieved coalescence


def _extend(chain: tuple, generator: np.ndarray, age: float,
            rng: np.random.Generator) -> tuple:
    """Jump ages and states of a backward chain, extended with fresh jumps
    until it covers ``age``; the jumps already drawn are kept."""
    ages, states = chain
    while ages[-1] < age:
        more, new = _factor_path(generator, int(states[-1]), _CHUNK, rng)
        ages = np.concatenate([ages, ages[-1] + more])
        states = np.concatenate([states, new[1:]])
    return ages, states


def cftp_sample(config: CftpConfig, rng: np.random.Generator | None = None) -> JointSample:
    """One exact draw from the joint stationary distribution.

    Raises NoCoalescence if max_doublings horizons are exhausted.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_loads
    comfort_rates = config.comfort_rates[:1] if config.shared_comfort else config.comfort_rates
    generators = [_birth_death_generator(r) for r in (config.wind_rates, *comfort_rates)]
    # each chain: (ages of its backward jumps, with 0 first; its states)
    chains = [(np.zeros(1), np.array([rng.choice(len(q), p=stationary_law(q))]))
              for q in generators]
    h, c, z, levels, rates = config._tables()
    loads = np.arange(n)
    owner = 1 + (np.zeros_like(loads) if config.shared_comfort else loads)  # comfort chain per load
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
        # state of every chain on every segment, oldest segment last
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


def estimate_joint_cost(samples: list[JointSample], config: CftpConfig,
                        gamma: float) -> CostReport:
    """Monte Carlo normalized cost from perfect samples.

    Each sample's grid power is classified per load by the model's
    power_split; the standard error of the combined cost is reported.
    """
    if not samples:
        raise EmptySamples("need at least one sample")
    n = config.n_loads
    x = np.array([s.temperatures for s in samples], dtype=float)
    wind = np.array([s.wind for s in samples])[:, None]
    loads = np.arange(n)
    h, c, z, levels, rates = config._tables()
    theta = levels[loads, np.array([s.comfort for s in samples])]
    _, grid = power_split(x, z, theta, h, c, rates[loads, wind], wind)
    power = (grid.sum(axis=1) / n) ** 2
    disc = (np.maximum(x - theta, 0.0) ** 2).sum(axis=1) / n
    totals = power + gamma * disc
    se = float(np.std(totals, ddof=1) / np.sqrt(len(totals))) if len(totals) > 1 else float("inf")
    return CostReport(power_cost=float(power.mean()),
                      discomfort_cost=float(disc.mean()),
                      gamma=gamma, std_error=se)


def smooth_distribution(u: ThresholdDistribution, bandwidth: float,
                        kernel: str = "box", n_grid: int = 801) -> ThresholdDistribution:
    """Convolve a (possibly discrete) threshold distribution with a
    symmetric unit-mass kernel, preventing set-point accumulation at jumps.

    The box kernel of half-width b turns a step into a linear ramp of width
    2b; the triangular kernel gives a smooth quadratic blend.  Monotonicity
    is preserved and the boundary values are re-pinned afterwards.
    """
    lo, hi = u.domain
    zg = np.linspace(lo, hi, n_grid)
    b = float(bandwidth)
    if b <= 0:
        raise ValueError("bandwidth must be positive")
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


def optimize_thresholds(config: CftpConfig, gamma: float, n_samples: int = 200,
                        sweeps: int = 2, tol: float = 0.5,
                        golden_iters: int = 12) -> tuple[np.ndarray, CostReport]:
    """Approximate coordinate descent over the set-point vector.

    Each evaluation reuses the same seeds (common random numbers) so cost
    differences reflect the set-point change rather than sampling noise;
    a golden-section line search handles one coordinate at a time.  The
    result is approximate by construction.
    """
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
