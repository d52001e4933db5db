"""Perfect sampling of the joint stationary state for heterogeneous loads
by monotone coupling from the past.

Loads share the wind process, which may be any birth-death chain (in wind
state i of W a load cools at i*c/(W-1), with the grid topping up forced
cooling), and own independent comfort-level chains and physical
parameters.  Given the environment path, each temperature evolves by the
model's deterministic monotone flow, so the coupling needs no per-load
randomness: the top chain starts every load at its highest comfort level,
the bottom chain at zero, and both replay the identical environment from
time -T, doubling T until the two flows meet at time 0.

The environment chains are birth-death and hence reversible, so the path
seen backward from a stationary time is again a chain with the same
generator: the state at time 0 is drawn from the stationary law and the
path is extended into the past by the simulator's factor-chain sampler
run in reversed time.  Doubling the horizon appends older jumps to the
cached path and never alters the randomness already used, which is
exactly the replay discipline coupling from the past requires.

Draws run in lockstep.  Every draw owns its random generator and reads it
in the order a draw on its own would, so a sample does not depend on which
other draws share its batch.  In each doubling round the segments of all
unfinished draws are laid out on one grid, oldest first and aligned at
time 0, and step k advances segment k of every draw with one call to
``model.exact_flow`` on the (top, bottom) temperatures of all loads and
draws; a draw with fewer segments is padded at the old end with
zero-length segments, which the flow maps to themselves.  Draws that have
coalesced leave, and only the rest double their horizon.  The chains'
tables and stationary laws are built once per config.  CftpConfig
validates itself on construction.
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
from .simulate import _FactorChain, _factor_path, child_seed

__all__ = [
    "CftpConfig",
    "JointSample",
    "cftp_sample",
    "cftp_samples",
    "estimate_joint_cost",
    "smooth_distribution",
    "optimize_thresholds",
]

_COALESCE_TOL = 1e-9
_CHUNK = 64          # backward jumps drawn per chain extension
_BLOCK = 2048        # draws x loads advanced in lockstep


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


def _extend(path: tuple, chain: _FactorChain, age: float,
            rng: np.random.Generator) -> tuple:
    """Jump ages and states of a backward chain, extended with fresh jumps
    until it covers ``age``; the jumps already drawn are kept."""
    ages, states = path
    while ages[-1] < age:
        more, new = _factor_path(chain, int(states[-1]), _CHUNK, rng)
        ages = np.concatenate([ages, ages[-1] + more])
        states = np.concatenate([states, new[1:]])
    return ages, states


def _segments(paths: list, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The segments that tile [-horizon, 0] in each draw's backward paths
    (paths[d][j]: the jump ages of chain j in draw d, 0 first, and its
    states): the state of every chain (steps x chains x draws) and the
    durations (steps x draws), oldest first.  Every draw ends its last step
    at time 0; a draw with fewer segments is padded at the old end with
    zero durations in state 0.

    A segment starts at each distinct jump age below the horizon, and a
    chain's state on it is the one after its last jump at or before that
    age, so the segments are those of each draw on its own.
    """
    n_draws, n_chains = len(paths), len(paths[0])
    flat = [p for per_draw in paths for p in per_draw]
    ages = np.concatenate([a for a, _ in flat])
    keep = ages < horizon
    entry = np.concatenate([s for _, s in flat])[keep]
    ages = ages[keep]
    draw, chain = np.divmod(np.repeat(np.arange(len(flat)), [len(a) for a, _ in flat])[keep],
                            n_chains)
    # by draw, age and chain; stable, so a chain's jumps keep their order
    order = np.lexsort((chain, ages, draw))
    ages, entry, draw, chain = ages[order], entry[order], draw[order], chain[order]
    starts = np.ones(len(ages), dtype=bool)
    starts[1:] = (draw[1:] != draw[:-1]) | (ages[1:] != ages[:-1])
    seg = np.cumsum(starts) - 1
    # the last entry of each chain in each segment, carried forward through
    # the segments where the chain does not jump (every chain has an entry
    # at age 0, so nothing is carried from one draw into the next)
    last = np.ones(len(ages), dtype=bool)
    last[:-1] = starts[1:] | (chain[1:] != chain[:-1])
    pick = np.zeros((seg[-1] + 1, n_chains), dtype=np.int64)
    pick[seg[last], chain[last]] = np.flatnonzero(last)
    state = entry[np.maximum.accumulate(pick, axis=0)]
    bounds, owner = ages[starts], draw[starts]
    ends = np.append(bounds[1:], horizon)
    ends[:-1][owner[1:] != owner[:-1]] = horizon
    # step of each segment, counted back from the newest (age 0) of its draw
    first = np.flatnonzero(np.append(True, owner[1:] != owner[:-1]))
    back = np.arange(len(bounds)) - first[owner]
    n_steps = back.max() + 1
    steps = np.zeros((n_steps, n_chains, n_draws), dtype=np.int64)
    dt = np.zeros((n_steps, n_draws))
    steps[n_steps - 1 - back, :, owner] = state
    dt[n_steps - 1 - back, owner] = ends - bounds
    return steps, dt


class _Coupling:
    """What every draw of one config shares: the factor chains (wind first,
    then the comfort chains) and the cumulative sums of their stationary
    laws, the per-load parameters and the first horizon."""

    def __init__(self, config: CftpConfig):
        comfort_rates = config.comfort_rates[:1] if config.shared_comfort \
            else config.comfort_rates
        generators = [_birth_death_generator(r) for r in (config.wind_rates, *comfort_rates)]
        # equal generators (as the comfort chains usually are) share one table
        built: dict = {}
        for q in generators:
            if q.tobytes() not in built:
                cdf = np.cumsum(stationary_law(q))
                built[q.tobytes()] = (_FactorChain(q), cdf / cdf[-1])
        self.chains = [built[q.tobytes()][0] for q in generators]
        # cdfs[j, k]: P(chain j is in a state <= k), padded with inf
        self.cdfs = np.full((len(generators), max(len(q) for q in generators)), np.inf)
        for j, q in enumerate(generators):
            self.cdfs[j, :len(q)] = built[q.tobytes()][1]
        self.h, self.c, self.z, self.levels, self.rates = config._tables()
        n = config.n_loads
        self.loads = np.arange(n)
        # the comfort chain of each load
        self.owner = 1 + (np.zeros(n, dtype=np.int64) if config.shared_comfort else self.loads)
        self.top = np.array([p.theta_max for p in config.load_params])
        if config.initial_horizon is not None:
            self.horizon = float(config.initial_horizon)
        else:
            self.horizon = 4.0 * max(p.theta_max / min(p.c, p.h) for p in config.load_params)
        self.max_doublings = config.max_doublings

    def draw(self, rngs: list) -> list[JointSample]:
        """One block of draws in lockstep; draw d reads only rngs[d].

        Raises NoCoalescence if any draw exhausts its horizons.
        """
        n, loads = len(self.loads), self.loads
        # the state at time 0 of each chain: its stationary law's inverse
        # CDF at one uniform per chain (the draw Generator.choice makes)
        u = np.array([rng.random(len(self.chains)) for rng in rngs])
        now = (self.cdfs <= u[:, :, None]).sum(axis=2)
        # per draw, per chain: (ages of its backward jumps, with 0 first; its states)
        paths = [[(np.zeros(1), s[j:j + 1]) for j in range(len(s))] for s in now]
        samples: list = [None] * len(rngs)
        pending = list(range(len(rngs)))
        horizon = self.horizon
        for _ in range(self.max_doublings):
            for d in pending:
                paths[d] = [_extend(p, ch, horizon, rngs[d])
                            for p, ch in zip(paths[d], self.chains)]
            state, dt = _segments([paths[d] for d in pending], horizon)
            wind = state[:, 0]
            theta = self.levels[loads[:, None], state[:, self.owner]]
            ci = self.rates[loads[:, None], wind[:, None]]
            # x[0] holds the top chains and x[1] the bottom ones, as
            # (loads x draws); the load parameters are spread to that shape
            # once, so that every step works on whole contiguous arrays
            shape = (2, n, len(pending))
            z, h, c = (np.ascontiguousarray(np.broadcast_to(v[:, None], shape))
                       for v in (self.z, self.h, self.c))
            x = np.zeros(shape)
            x[0] = self.top[:, None]
            for k in range(len(dt)):
                x = exact_flow(x, z, theta[k], h, c, ci[k], dt[k], wind[k])
                if (x[1] > x[0] + 1e-12).any():
                    raise AssertionError("sandwich violated; flow is not monotone")
            met = np.all(x[0] - x[1] <= _COALESCE_TOL, axis=0)
            for j in np.flatnonzero(met).tolist():
                d = pending[j]
                samples[d] = JointSample(temperatures=x[0, :, j].copy(), wind=int(now[d, 0]),
                                         comfort=now[d, self.owner], horizon=horizon)
            pending = [d for d, m in zip(pending, met.tolist()) if not m]
            if not pending:
                return samples
            horizon *= 2.0
        raise NoCoalescence(f"no coalescence by horizon {horizon}")


def cftp_samples(config: CftpConfig, rngs) -> list[JointSample]:
    """Exact draws from the joint stationary distribution, one per random
    generator in ``rngs``.

    Draws run in lockstep, in blocks of _BLOCK // n_loads draws (at least
    one), which bounds the memory a block takes.  Each reads only its own
    generator, in the order a draw on its own would, so a sample does not
    depend on the other draws or on the blocking.  Raises NoCoalescence if
    any draw exhausts max_doublings horizons.
    """
    rngs = list(rngs)
    coupling = _Coupling(config)
    size = max(1, _BLOCK // config.n_loads)
    return [s for b in range(0, len(rngs), size) for s in coupling.draw(rngs[b:b + size])]


def cftp_sample(config: CftpConfig, rng: np.random.Generator | None = None) -> JointSample:
    """One exact draw from the joint stationary distribution (a batch of
    one of cftp_samples, seeded by the config unless rng is given).

    Raises NoCoalescence if max_doublings horizons are exhausted.
    """
    return cftp_samples(config, [rng if rng is not None else
                                 np.random.default_rng(config.seed)])[0]


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
        samples = cftp_samples(cfg, [np.random.default_rng(child_seed(config.seed, k))
                                     for k in range(n_samples)])
        return estimate_joint_cost(samples, cfg, gamma)

    def total(i: int, v: float) -> float:
        """The cost with coordinate i of the current set-points moved to v."""
        zv = z.copy()
        zv[i] = v
        return report(zv).total

    best = report(z).total
    for _ in range(sweeps):
        for i in range(len(z)):
            a, bnd = config.load_params[i].comfort_levels[0], config.load_params[i].theta_max
            x1 = bnd - invphi * (bnd - a)
            x2 = a + invphi * (bnd - a)
            f1, f2 = total(i, x1), total(i, x2)
            for _ in range(golden_iters):
                if bnd - a <= tol:
                    break
                if f1 <= f2:
                    bnd, x2, f2 = x2, x1, f1
                    x1 = bnd - invphi * (bnd - a)
                    f1 = total(i, x1)
                else:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + invphi * (bnd - a)
                    f2 = total(i, x2)
            fi = min(f1, f2)
            if fi < best:
                z[i] = x1 if f1 <= f2 else x2
                best = fi
    return z, report(z)
