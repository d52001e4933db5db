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
path is extended into the past by the model's factor-chain sampler (the
one the simulator's path sampler runs) in reversed time.  Doubling the
horizon appends older jumps to the paths drawn so far and never alters
the randomness already used, which is exactly the replay discipline
coupling from the past requires.

Draws run in lockstep, at most _BLOCK // n_loads of them (a block) at a
time.  Every draw owns its random generator and reads it in the order a
draw on its own would, so a sample does not depend on which other draws
share its round.  The backward paths of a round's draws are one flat list
of jumps, each holding its row (one chain of one draw), its age and the
state it enters.  The list grows in waves: each draw with a chain short of
the horizon draws the next chunk of its first such chain from its own
generator, and one walk of the model's sampler extends every such row.  A
load's flow reads only the wind chain and its own comfort chain, so in a
round each load of each draw (a lane) gets its own segments, bounded by
the jump ages below the horizon of those two chains.  The lanes are laid
out on one grid, oldest first and aligned at time 0, and step k advances
segment k of every lane with one call to ``model.exact_flow`` on the
(top, bottom) temperatures of all loads and draws, each lane with its own
duration and wind state; a lane with fewer segments is padded at the old
end with zero-length segments, which the flow maps to themselves.  So a
round takes as many steps as its longest lane, however many loads there
are.  Draws that have coalesced leave the list.

Each block of fresh draws runs one round at the first horizon.  The draws
it leaves unfinished wait in the pool of the next doubling level, with
those of every other block: their lists are concatenated with a row offset
per group, and each level runs once over its pool, whose unfinished draws
wait for the level after.  A pool runs early whenever the next group would
take it past a block, so no round holds more than a block.  The chains'
tables and stationary laws are built once per config.  CftpConfig
validates itself on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import CostReport, standard_error
from .distributions import ThresholdDistribution
from .errors import EmptySamples, NoCoalescence
from .model import (
    LoadParams, _birth_death_generator, _check_integers, _check_seed, _draw_jumps,
    _FactorChain, _walk, child_rngs, exact_flow, grid_power, stationary_law,
)

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
_SMOOTH_BLOCK = 32   # kernel nodes per block of the smoothing quadrature


@dataclass(frozen=True)
class CftpConfig:
    """Perfect-sampling experiment: loads share the wind chain and own one
    comfort chain each (or all share the first, with shared_comfort).

    Raises ValueError unless there is at least one load, set_points and
    comfort_rates give one entry per load, each comfort chain has as many
    states as its load has comfort levels, the rates give one chain under
    shared_comfort, initial_horizon is None or a finite positive real
    number (not a bool), and seed and max_doublings are integers (numpy
    ones too, not bools), seed at least 0 and max_doublings at least 1;
    raises InvalidSetPoint unless every set-point lies in [0, Theta_C] of
    its load.
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
        generators = [_birth_death_generator(rates) for rates in self.comfort_rates]
        for p, q, rates in zip(self.load_params, generators, self.comfort_rates):
            if q.shape[0] != len(p.comfort_levels):
                raise ValueError(f"comfort rates {rates} do not give one state per "
                                 f"comfort level {p.comfort_levels}")
        if self.shared_comfort and not all(np.array_equal(q, generators[0]) for q in generators):
            raise ValueError("a shared comfort chain needs the same comfort rates for every load")
        t = self.initial_horizon
        real = isinstance(t, (int, float, np.integer, np.floating)) and not isinstance(t, bool)
        if t is not None and not (real and 0.0 < t < np.inf):
            raise ValueError(f"initial_horizon must be a finite positive number, got {t!r}")
        _check_integers(self, ("max_doublings",))
        _check_seed(self)
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


def _extend(chains: _FactorChain, jumps: np.ndarray, end: np.ndarray, last: np.ndarray,
            rngs: list, horizon: float) -> np.ndarray:
    """The list ``jumps`` with fresh jumps appended until every chain covers
    ``horizon``.  An entry holds a jump's row (draw * chains + chain), age
    and entered state, each chain's oldest last; end[d, j] and last[d, j]
    hold the oldest age and state of row d * chains + j and are updated in
    place.  Draw d reads rngs[d].  In each wave every draw with a chain
    short of the horizon draws _CHUNK jumps of its first such chain, so it
    takes its chains in order, one chunk at a time, as a draw on its own
    would; one walk extends all of those rows.
    """
    blocks = [jumps]
    while True:
        short = end < horizon
        d = np.flatnonzero(short.any(axis=1))
        if not len(d):
            return np.concatenate(blocks)
        j = short[d].argmax(axis=1)
        times, new = _walk(chains, j, last[d, j],
                           *_draw_jumps(chains, j, [rngs[k] for k in d.tolist()], _CHUNK))
        block = np.empty(times.shape, dtype=jumps.dtype)
        block["row"], block["age"], block["state"] = \
            (d * end.shape[1] + j)[:, None], end[d, j][:, None] + times, new[:, 1:]
        end[d, j], last[d, j] = block["age"][:, -1], new[:, -1]
        # once a chain is absorbed its remaining jumps lie at age inf, past
        # every horizon; ages grow along a row, so only a row ending at inf
        # holds any
        block = block.ravel()
        blocks.append(block[np.isfinite(block["age"])] if np.isinf(end[d, j]).any() else block)


def _segments(jumps: np.ndarray, n_draws: int, n_chains: int, horizon: float,
              owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segments that tile [-horizon, 0] for each load of each draw in
    the draws' backward paths (the list of jumps _extend keeps): the states
    of the wind chain and of the load's comfort chain owner[i], and the
    durations, each (steps x loads x draws), oldest first.  Every lane (a
    load of a draw) ends its last step at time 0; a lane with fewer
    segments is padded at the old end with zero durations in state 0.

    A load's segment starts at each jump age below the horizon of the wind
    chain or of its own comfort chain, and a chain's state on it is the one
    after its last jump at or before that age, so the segments are those of
    each load of each draw on its own.
    """
    jumps = jumps[jumps["age"] < horizon]
    ages, entry = jumps["age"], jumps["state"]
    draw, chain = np.divmod(jumps["row"], n_chains)
    # by draw, age and chain: one stable sort per key, least significant
    # first, which is np.lexsort's order; on keys of 16 bits or fewer numpy
    # sorts by radix.  Stable, so a chain's jumps keep their order
    order = np.argsort(chain.astype(np.min_scalar_type(n_chains - 1)), kind="stable")
    order = order[np.argsort(ages[order], kind="stable")]
    order = order[np.argsort(draw.astype(np.min_scalar_type(n_draws - 1))[order], kind="stable")]
    ages, entry, draw, chain = ages[order], entry[order], draw[order], chain[order]
    starts = np.append(True, (draw[1:] != draw[:-1]) | (ages[1:] != ages[:-1]))
    seg = np.cumsum(starts) - 1
    # the last entry of each chain in each of the draws' segments (-1 where
    # it does not jump), then carried forward through those segments (every
    # chain has an entry at age 0, so nothing is carried from one draw into
    # the next)
    last = np.append(starts[1:] | (chain[1:] != chain[:-1]), True)
    pick = np.full((n_chains, seg[-1] + 1), -1, dtype=np.int32)
    pick[chain[last], seg[last]] = np.flatnonzero(last)
    # a load keeps the segments where the wind or its comfort chain jumps,
    # lane by lane: a lane is a load of a draw, load-major as the columns of
    # the result, and runs back from its segment at age 0
    keep = (pick[owner] >= 0) | (pick[0] >= 0)
    np.maximum.accumulate(pick, axis=1, out=pick)
    load, s = np.divmod(np.flatnonzero(keep), keep.shape[1])
    bounds = ages[starts][s]
    first = np.flatnonzero(bounds == 0.0)
    ends = np.append(bounds[1:], horizon)
    ends[first[1:] - 1] = horizon
    length = np.diff(first, append=len(s))
    # lane l fills its newest length[l] steps, from time 0 back
    fill = np.arange(length.max()) < length[:, None]

    def lay(values):
        out = np.zeros(fill.shape[::-1], dtype=values.dtype)
        out[::-1].T[fill] = values
        return out.reshape(-1, len(owner), n_draws)

    return lay(entry[pick[0, s]]), lay(entry[pick[owner[load], s]]), lay(ends - bounds)


@dataclass
class _Draws:
    """Unfinished draws and their backward paths: the list of jumps that
    _extend keeps (a row is draw * chains + chain, draws numbered from 0 in
    this group), the oldest age and state of every row (end, last), the
    state of every chain at time 0 (now), all as (draws x chains), and each
    draw's sample index."""

    jumps: np.ndarray
    end: np.ndarray
    last: np.ndarray
    now: np.ndarray
    index: np.ndarray

    def take(self, keep: np.ndarray) -> _Draws:
        """The draws where ``keep`` holds, their rows renumbered in order."""
        rows = np.repeat(keep, self.now.shape[1])
        jumps = self.jumps[rows[self.jumps["row"]]]
        jumps["row"] = (np.cumsum(rows) - 1)[jumps["row"]]
        return _Draws(jumps, *(a[keep] for a in (self.end, self.last, self.now, self.index)))

    @staticmethod
    def pool(groups: list[_Draws]) -> _Draws:
        """The draws of all ``groups`` as one group, in order, each group's
        rows offset by the rows before it."""
        jumps = np.concatenate([g.jumps for g in groups])
        rows = np.cumsum([0] + [g.now.size for g in groups[:-1]])
        jumps["row"] += np.repeat(rows, [len(g.jumps) for g in groups])
        return _Draws(jumps, *(np.concatenate([getattr(g, name) for g in groups])
                               for name in ("end", "last", "now", "index")))


class _Coupling:
    """What every draw of one config shares: the factor chains' tables
    (wind first, then the comfort chains) and the cumulative sums of their
    stationary laws, the per-load parameters and the first horizon."""

    def __init__(self, config: CftpConfig):
        comfort_rates = config.comfort_rates[:1] if config.shared_comfort \
            else config.comfort_rates
        generators = [_birth_death_generator(r) for r in (config.wind_rates, *comfort_rates)]
        self.chains = _FactorChain(*generators)
        # cdfs[j, k]: P(chain j is in a state <= k), padded with inf
        self.cdfs = np.full(self.chains.scales.shape, np.inf)
        for j, q in enumerate(generators):
            cdf = np.cumsum(stationary_law(q))
            self.cdfs[j, :len(q)] = cdf / cdf[-1]
        self.h, self.c, self.z, self.levels, self.rates = config._tables()
        n = config.n_loads
        self.loads = np.arange(n)
        # the comfort chain of each load
        self.owner = 1 + (np.zeros(n, dtype=np.int64) if config.shared_comfort else self.loads)
        self.top = np.array([p.theta_max for p in config.load_params])
        self.horizon = float(config.initial_horizon) if config.initial_horizon is not None \
            else 4.0 * max(p.theta_max / min(p.c, p.h) for p in config.load_params)

    def fresh(self, rngs: list, index: np.ndarray) -> _Draws:
        """New draws with sample indices ``index``, draw d reading
        rngs[index[d]]: each chain's state at time 0, and no jumps yet."""
        # the state at time 0 of each chain: its stationary law's inverse
        # CDF at one uniform per chain (the draw Generator.choice makes)
        u = np.array([rngs[i].random(len(self.cdfs)) for i in index.tolist()])
        now = (self.cdfs <= u[:, :, None]).sum(axis=2)
        jumps = np.zeros(now.size, dtype=[("row", np.int32), ("state", np.int32), ("age", float)])
        jumps["row"], jumps["state"] = np.arange(now.size), now.ravel()
        return _Draws(jumps, np.zeros(now.shape), now.copy(), now, index)

    def round(self, draws: _Draws, rngs: list, horizon: float, samples: list) -> _Draws:
        """Run ``draws`` in lockstep from time -horizon, each reading only
        its own generator and its paths extended in place; put the
        coalesced ones in ``samples`` and return the rest."""
        loads = self.loads[:, None]
        draws.jumps = _extend(self.chains, draws.jumps, draws.end, draws.last,
                              [rngs[i] for i in draws.index.tolist()], horizon)
        wind, comfort, dt = _segments(draws.jumps, *draws.end.shape, horizon, self.owner)
        theta, ci = self.levels[loads, comfort], self.rates[loads, wind]
        # x[0] holds the top chains and x[1] the bottom ones, as
        # (loads x draws); the load parameters are spread to that shape
        # once, so that every step works on whole contiguous arrays
        shape = (2, len(loads), len(draws.index))
        z, h, c = (np.ascontiguousarray(np.broadcast_to(v[:, None], shape))
                   for v in (self.z, self.h, self.c))
        x = np.zeros(shape)
        x[0] = self.top[:, None]
        for k in range(len(dt)):
            x = exact_flow(x, z, theta[k], h, c, ci[k], dt[k], wind[k])
            if (x[1] > x[0] + 1e-12).any():
                raise AssertionError("sandwich violated; flow is not monotone")
        met = np.all(x[0] - x[1] <= _COALESCE_TOL, axis=0)
        now = draws.now
        for j in np.flatnonzero(met).tolist():
            samples[draws.index[j]] = JointSample(
                temperatures=x[0, :, j].copy(), wind=int(now[j, 0]),
                comfort=now[j, self.owner], horizon=horizon)
        # coalesced draws leave the paths, so memory follows the pending ones
        return draws.take(~met)


def cftp_samples(config: CftpConfig, rngs) -> list[JointSample]:
    """Exact draws from the joint stationary distribution, one per random
    generator in ``rngs``.

    Draws run in lockstep, at most _BLOCK // n_loads (at least one) at a
    time, which bounds the memory a lockstep takes.  Each block of fresh
    draws runs at the first horizon; the draws it leaves unfinished wait in
    a pool for the second, with those of the other blocks, and so on: each
    doubling level runs once over the pooled draws of every block, and a
    pool runs early whenever the next group would take it past a block.
    Each draw reads only its own generator, in the order a draw on its own
    would, so a sample does not depend on the other draws or on the
    blocking.  Raises NoCoalescence if any draw exhausts max_doublings
    horizons.
    """
    rngs = list(rngs)
    coupling = _Coupling(config)
    size = max(1, _BLOCK // config.n_loads)
    samples: list = [None] * len(rngs)
    # pools[k]: groups of unfinished draws waiting for doubling level k,
    # whose horizon is the first one times 2**k
    pools: dict[int, list[_Draws]] = {}

    def run(level: int) -> None:
        """Run the pool of ``level`` once; queue what it leaves unfinished."""
        settle(level + 1, coupling.round(_Draws.pool(pools.pop(level)), rngs,
                                         coupling.horizon * 2.0 ** level, samples))

    def settle(level: int, draws: _Draws) -> None:
        """Queue ``draws`` for ``level``, first running its pool if they
        would take it past a block."""
        if not len(draws.index):
            return
        if level == config.max_doublings:
            raise NoCoalescence(f"no coalescence by horizon "
                                f"{coupling.horizon * 2.0 ** (level - 1)}, "
                                f"the longest of {level} horizons tried")
        if sum(len(g.index) for g in pools.get(level, ())) + len(draws.index) > size:
            run(level)
        pools.setdefault(level, []).append(draws)

    for b in range(0, len(rngs), size):
        settle(1, coupling.round(coupling.fresh(rngs, np.arange(b, min(b + size, len(rngs)))),
                                 rngs, coupling.horizon, samples))
    while pools:
        run(min(pools))
    return samples


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
    grid_power; the standard error of the combined cost is reported.
    Raises ValueError unless gamma is finite and nonnegative, and
    EmptySamples if there are no samples.
    """
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    if not samples:
        raise EmptySamples("need at least one sample")
    n = config.n_loads
    x = np.array([s.temperatures for s in samples], dtype=float)
    wind = np.array([s.wind for s in samples])[:, None]
    loads = np.arange(n)
    h, c, z, levels, rates = config._tables()
    theta = levels[loads, np.array([s.comfort for s in samples])]
    grid = grid_power(x, z, theta, h, c, rates[loads, wind], wind)
    power = (grid.sum(axis=1) / n) ** 2
    disc = (np.maximum(x - theta, 0.0) ** 2).sum(axis=1) / n
    totals = power + gamma * disc
    return CostReport(power_cost=float(power.mean()),
                      discomfort_cost=float(disc.mean()),
                      gamma=gamma, std_error=standard_error(totals))


def smooth_distribution(u: ThresholdDistribution, bandwidth: float,
                        kernel: str = "box", n_grid: int = 801) -> ThresholdDistribution:
    """Convolve a (possibly discrete) threshold distribution with a
    symmetric unit-mass kernel, preventing set-point accumulation at jumps.

    The box kernel of half-width b turns a step into a linear ramp of width
    2b; the triangular kernel gives a smooth quadratic blend.  Monotonicity
    is preserved and the boundary values are re-pinned afterwards.  Raises
    ValueError unless n_grid is an integer of at least 2 (not a bool), the
    bandwidth is finite and positive and the kernel is box or triangular.
    """
    if isinstance(n_grid, bool) or not isinstance(n_grid, (int, np.integer)) or n_grid < 2:
        raise ValueError(f"n_grid must be an integer of at least 2, got {n_grid!r}")
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
    # np.trapezoid(g[:, None] * ext, s, axis=0), ext being u(zg - s)
    # extended by 0 below and 1 above its domain, built a block of kernel
    # nodes at a time so that it stays in cache; the trapezoid terms are
    # added row by row in order from 0.0, as that reduction adds them
    d = np.diff(s)
    vals = np.zeros(n_grid)
    for i in range(0, len(d), _SMOOTH_BLOCK):
        t = zg - s[i:i + _SMOOTH_BLOCK + 1, None]
        y = g[i:i + _SMOOTH_BLOCK + 1, None] * np.where(
            t < lo, 0.0, np.where(t > hi, 1.0, u(np.clip(t, lo, hi))))
        for term in d[i:i + _SMOOTH_BLOCK, None] * (y[1:] + y[:-1]) / 2.0:
            vals += term
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
        samples = cftp_samples(cfg, child_rngs(config.seed, n_samples))
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
