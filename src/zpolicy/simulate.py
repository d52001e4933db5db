"""Event-driven Monte Carlo simulation of threshold-policy ensembles.

The environment path (wind and comfort jump times) is sampled first and
shared by every load.  Given the path, each temperature evolves
deterministically by the exact piecewise-linear flow, so the only
randomness is the common environment, and loads with equal set-points
follow identical trajectories.

A run has two stages.  The recursion is the only sequential step: for each
distinct set-point, model.flow_path walks the path's segments in a scalar
loop and records the entry temperature of every segment.  The accounting
then works on whole (segments x distinct loads) arrays, block by block,
with each distinct load counted by its multiplicity:

- grid power comes from power_split and changes at most once per load and
  segment, so sorting each segment's event times gives the aggregate draw
  as a step function and the integral of its square exactly;
- discomfort, the integral of (x - Theta)^2 above the comfort level, is
  closed-form;
- occupation is exact: parked time per dwell location, and moving
  stretches (uniform in x) as prefix sums evaluated on a fixed grid of
  edges.

Blocks carry the temperatures, the sums and the occupation across, so
memory stays O(block x distinct loads) however long the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostReport
from .distributions import ThresholdDistribution
from .errors import MissingOccupation
from .model import LoadParams, MarkovEnvironment, flow_path, power_split

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "EnvironmentPath",
    "sample_environment_path",
    "simulate",
    "empirical_cdf",
    "check_dominance",
    "child_seed",
]


def child_seed(seed: int, replication: int) -> int:
    """Documented splitting rule for per-replication seeds."""
    return int(np.random.SeedSequence([seed, replication]).generate_state(1)[0])


@dataclass(frozen=True)
class SimulationConfig:
    n_loads: int
    horizon_jumps: int
    seed: int
    set_points: np.ndarray | None = None
    distribution: ThresholdDistribution | None = None
    record_occupation: bool = False
    record_trace: bool = False
    burn_in: float = 0.1
    occupation_edges: int = 401
    initial_temperature: float = 0.0

    def __post_init__(self):
        if self.n_loads < 1:
            raise ValueError(f"n_loads must be at least 1, got {self.n_loads}")
        if self.horizon_jumps < 1:
            raise ValueError(f"horizon_jumps must be at least 1, got {self.horizon_jumps}")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError(f"burn_in must lie in [0, 1), got {self.burn_in}")
        if not 0.0 <= self.initial_temperature < np.inf:
            raise ValueError("initial_temperature must be finite and nonnegative, "
                             f"got {self.initial_temperature}")
        if self.occupation_edges < 2:
            raise ValueError(f"occupation_edges must be at least 2, got {self.occupation_edges}")

    def resolve_set_points(self, params: LoadParams) -> np.ndarray:
        """Ascending set-points; InvalidSetPoint unless all lie in [0, Theta_C]."""
        if self.set_points is not None:
            z = np.sort(np.asarray(self.set_points, dtype=float))
        elif self.distribution is not None:
            z = self.distribution.sample_quantiles(self.n_loads)
        else:
            raise ValueError("config needs set_points or a distribution")
        if len(z) != self.n_loads:
            raise ValueError("set_points length must equal n_loads")
        params.check_set_points(z)
        return z


@dataclass(frozen=True)
class EnvironmentPath:
    start_times: np.ndarray
    wind: np.ndarray
    comfort: np.ndarray
    durations: np.ndarray

    @property
    def total_time(self) -> float:
        return float(self.start_times[-1] + self.durations[-1])


class _FactorChain:
    """Jump tables of one factor chain, built once per generator: the mean
    holding time of each state (inf once absorbing), and each state's next
    states with their cumulative branch weights (an absorbing state's only
    next state is itself)."""

    def __init__(self, generator: np.ndarray):
        rates = -np.diag(generator)
        exits = np.clip(generator, 0.0, None)
        np.fill_diagonal(exits, 0.0)
        self.scales = np.full(len(rates), np.inf)
        np.divide(1.0, rates, out=self.scales, where=rates > 0)
        self.branches = []
        for s in range(len(rates)):
            t = np.flatnonzero(exits[:, s])
            self.branches.append((t, np.cumsum(exits[t, s]) / exits[t, s].sum()) if len(t)
                                 else (np.array([s]), np.array([np.inf])))
        self.branching = any(len(t) > 1 for t, _ in self.branches)
        self.successor = np.array([t[0] for t, _ in self.branches])


def _factor_path(chain: _FactorChain, state: int, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` jumps of one factor chain started in ``state``: the jump times
    (inf once an absorbing state is reached) and the ``n + 1`` states.

    Each jump's exponential variate is drawn up front, followed by one
    uniform per jump only when some state has more than one possible next
    state; a 2-state chain therefore draws exactly ``n`` exponentials.
    """
    variates = rng.standard_exponential(n)
    if chain.branching:
        u = rng.random(n)
        # step[k, s]: the state after jump k from state s
        step = np.empty((n, len(chain.branches)), dtype=np.int64)
        for s, (t, cum) in enumerate(chain.branches):
            step[:, s] = t[np.minimum(np.searchsorted(cum, u, side="right"), len(t) - 1)]
        walk = [int(state)]
        for row in step.tolist():
            walk.append(row[walk[-1]])
        states = np.array(walk, dtype=np.int64)
    else:
        # one successor map f: states[k] = f^k(state), doubling k
        states = np.empty(n + 1, dtype=np.int64)
        states[0] = state
        f, m = chain.successor, 1
        while m <= n:
            states[m:2 * m] = f[states[:min(m, n + 1 - m)]]
            f, m = f[f], 2 * m
    return (variates * chain.scales[states[:-1]]).cumsum(), states


def sample_environment_path(env: MarkovEnvironment, n_jumps: int,
                            rng: np.random.Generator,
                            initial_state: int | None = None) -> EnvironmentPath:
    """Sample ``n_jumps`` transitions of the joint chain, starting from its
    stationary distribution unless an initial state is given.

    The wind and comfort factors are independent chains: each is sampled
    for ``n_jumps`` jumps of its own and the sorted jump times are merged,
    which leaves at least ``n_jumps`` joint transitions.  The path ends
    early if both factors reach absorbing states.
    """
    if initial_state is None:
        pi = env.stationary()
        initial_state = int(rng.choice(env.n_states, p=pi))
    w0, c0 = env.split_index(initial_state)
    wt, ws = _factor_path(_FactorChain(env.wind_generator), w0, n_jumps, rng)
    ct, cs = _factor_path(_FactorChain(env.comfort_generator), c0, n_jumps, rng)
    merged = np.sort(np.concatenate([wt, ct]))[:n_jumps]
    starts = np.concatenate([[0.0], merged[np.isfinite(merged)]])
    wind = ws[np.searchsorted(wt, starts, side="right")]
    comfort = cs[np.searchsorted(ct, starts, side="right")]
    # last segment: one more exponential of the final state
    last = env.state_index(int(wind[-1]), int(comfort[-1]))
    rate = -env.generator[last, last]
    final = rng.exponential(1.0 / rate) if rate > 0 else 10.0 * max(starts[-1], 1.0)
    return EnvironmentPath(start_times=starts, wind=wind, comfort=comfort,
                           durations=np.append(np.diff(starts), final))


_BLOCK = 4096   # environment segments per accounting block


class _Occupation:
    """Exact occupation of the distinct loads, accumulated block by block.

    A moving stretch from lo to hi at constant speed spends w*(min(e, hi) -
    min(e, lo)) time at or below e, with w = duration/(hi - lo).  Summed
    over the stretches that is e*S(e) - T(e): S sums w over the stretches
    with lo < e less those with hi < e, and T sums w*lo and w*hi likewise.
    S and T are binned by the first edge above lo (or hi) and summed up the
    edges at the end.  Parked time is summed per dwell key (load, location
    rounded to 1e-9): a load parks at min(z, Theta_k) with wind off and at
    the floor 0 under wind.
    """

    def __init__(self, zd: np.ndarray, levels: np.ndarray, edges: np.ndarray):
        self.zd = zd
        self.edges = edges
        self.n_bins = len(edges) + 1
        self.s = np.zeros(len(zd) * self.n_bins)
        self.t = np.zeros(len(zd) * self.n_bins)
        # dwell slot k < C: parked at comfort level k; slot C: the floor
        spots = np.column_stack([np.minimum.outer(zd, levels), np.zeros(len(zd))])
        index: dict[tuple[int, float], int] = {}
        self.slot_key = np.array([[index.setdefault((j, round(loc, 9)), len(index))
                                   for loc in row] for j, row in enumerate(spots.tolist())])
        self.keys = list(index)
        self.dwell = np.zeros(len(index))

    def add(self, x, theta, ci, dur, wind, comfort, h: float, c: float):
        """One block: entry temperatures x (segments x distinct loads) and the
        segments' comfort level, wind cooling rate, duration, wind and comfort
        states as columns."""
        off = wind == 0
        target = np.where(off, np.minimum(self.zd, theta), theta)
        down = x > target
        # first stretch: to the hold point with wind off, down to Theta under wind
        t1 = np.where(down | off,
                      np.minimum(np.abs(x - target) / np.where(down, c, h), dur), 0.0)
        y = np.where(down, x - c * t1, x + h * t1)
        rem = dur - t1
        # second stretch: under wind, down toward the floor
        t2 = np.where(~off & (rem > 0) & (y > 0),
                      np.minimum(y / np.where(off, np.inf, ci), rem), 0.0)
        lo = np.stack([np.minimum(x, y), y - ci * t2])
        hi = np.stack([np.maximum(x, y), y])
        span, took = hi - lo, np.stack([t1, t2])
        live = (span >= 1e-14) & (took > 0)
        lo, hi, w = lo[live], hi[live], took[live] / span[live]
        col = np.broadcast_to(np.arange(x.shape[1]) * self.n_bins, live.shape)[live]
        bins = np.concatenate([np.searchsorted(self.edges, lo, side="right") + col,
                               np.searchsorted(self.edges, hi, side="right") + col])
        size = len(self.s)
        self.s += np.bincount(bins, weights=np.concatenate([w, -w]), minlength=size)
        self.t += np.bincount(bins, weights=np.concatenate([w * lo, -w * hi]), minlength=size)
        # parked time, added in segment order after the running totals
        parked = rem - t2
        keys = self.slot_key.T[np.where(off, comfort, self.slot_key.shape[1] - 1).ravel()]
        live = parked > 0
        self.dwell = np.bincount(np.concatenate([np.arange(len(self.dwell)), keys[live]]),
                                 weights=np.concatenate([self.dwell, parked[live]]),
                                 minlength=len(self.dwell))

    def cdf(self, time: float) -> np.ndarray:
        """Occupation CDF of each distinct load at the edges (fractions of time)."""
        s = np.cumsum(self.s.reshape(-1, self.n_bins), axis=1)[:, :-1]
        t = np.cumsum(self.t.reshape(-1, self.n_bins), axis=1)[:, :-1]
        out = self.edges * s - t
        for (j, loc), v in zip(self.keys, self.dwell.tolist()):
            out[j, self.edges >= loc - 1e-9] += v
        return out / max(time, 1e-300)

    def fractions(self, inv: np.ndarray, time: float) -> dict:
        """(load, location) -> parked fraction of time, for every load."""
        spots: dict[int, list] = {}
        for (j, loc), v in zip(self.keys, self.dwell.tolist()):
            if v > 0:
                spots.setdefault(j, []).append((loc, v / time))
        return {(i, loc): f for i, j in enumerate(inv.tolist()) for loc, f in spots.get(j, [])}


@dataclass(frozen=True)
class SimulationResult:
    empirical_cost: CostReport
    set_points: np.ndarray
    total_time: float
    accounted_time: float
    n_segments: int
    seed: int
    occupation_edges: np.ndarray | None = None
    occupation_cdf: np.ndarray | None = None      # (n_loads, n_edges)
    dwell_fractions: dict | None = None           # (load, location) -> fraction
    trace_times: np.ndarray | None = None
    trace_x: np.ndarray | None = None             # (n_instants, n_loads)
    trace_wind: np.ndarray | None = None
    trace_comfort: np.ndarray | None = None


def _block_costs(x, zd, weight, theta, ci, dur, wind, h: float, c: float):
    """(integral of (sum of grid power)^2, summed integral of (x - Theta)_+^2)
    over one block, for entry temperatures x (segments x distinct loads)
    counted with the multiplicities ``weight``.

    A load's grid power (power_split) changes at most once in a segment,
    when it reaches its target: the hold point with wind off, Theta under
    wind.  Sorting each row's event times makes the aggregate piecewise
    constant between them.
    """
    target = np.where(wind == 0, np.minimum(zd, theta), theta)
    _, g0 = power_split(x, zd, theta, h, c, ci, wind)
    _, g1 = power_split(target, zd, theta, h, c, ci, wind)
    event = np.minimum(np.where(x > target, (x - target) / c, (target - x) / h), dur)
    order = np.argsort(event, axis=1)
    steps = np.take_along_axis((g1 - g0) * weight, order, axis=1)
    level = np.cumsum(np.concatenate([(g0 @ weight)[:, None], steps], axis=1), axis=1)
    width = np.diff(np.take_along_axis(event, order, axis=1), axis=1, prepend=0.0, append=dur)
    # above Theta a load cools at c: the integral of (a - c t)^2 in closed form
    a = np.maximum(x - theta, 0.0)
    cooled = a - c * np.minimum(a / c, dur)
    return (float(np.sum(level * level * width)),
            float(np.sum((a * a * a - cooled * cooled * cooled) @ weight)) / (3.0 * c))


def simulate(config: SimulationConfig, env: MarkovEnvironment, params: LoadParams,
             gamma: float) -> SimulationResult:
    """Run one replication; deterministic given the config seed.

    Loads with equal set-points follow one trajectory, so the recursion and
    the accounting run once per distinct set-point, counted by multiplicity.
    """
    rng = np.random.default_rng(config.seed)
    z = config.resolve_set_points(params)
    path = sample_environment_path(env, config.horizon_jumps, rng)
    zd, inv = np.unique(z, return_inverse=True)
    weight = np.bincount(inv).astype(float)
    h, c = params.h, params.c
    levels = np.asarray(params.comfort_levels)
    theta = levels[path.comfort]
    ci = params.wind_cooling_rates(env.n_wind)[path.wind]
    n_seg = len(path.start_times)
    first = int(np.searchsorted(path.start_times, config.burn_in * path.total_time))
    occ = _Occupation(zd, levels, np.linspace(0.0, params.theta_max, config.occupation_edges)) \
        if config.record_occupation else None

    x = [float(config.initial_temperature)] * len(zd)
    int_g2 = int_disc = 0.0
    trace = [np.empty((0, config.n_loads))]
    for s in range(0, n_seg, _BLOCK):
        segs = [a[s:s + _BLOCK].tolist() for a in (theta, ci, path.durations, path.wind)]
        runs = [flow_path(x0, zj, h, c, *segs) for x0, zj in zip(x, zd.tolist())]
        x = [run[-1] for run in runs]
        skip = max(first - s, 0)
        if skip >= len(segs[0]):
            continue                                  # burn-in only
        xs = np.ascontiguousarray(np.array([run[skip:-1] for run in runs]).T)
        acc = slice(s + skip, s + len(segs[0]))
        cols = [a[acc, None] for a in (theta, ci, path.durations, path.wind)]
        g2, disc = _block_costs(xs, zd, weight, *cols, h, c)
        int_g2 += g2
        int_disc += disc
        if occ is not None:
            occ.add(xs, *cols, path.comfort[acc, None], h, c)
        if config.record_trace:
            trace.append(xs[:, inv])

    # accounted time, summed in segment order as the parked totals are: a
    # load that never moves has an occupation CDF of exactly 1
    t_acc = float(np.cumsum(path.durations[first:])[-1]) if first < n_seg else 0.0
    n = config.n_loads
    report = CostReport(power_cost=int_g2 / max(t_acc, 1e-300) / n**2,
                        discomfort_cost=int_disc / max(t_acc, 1e-300) / n, gamma=gamma)
    recorded = config.record_trace
    return SimulationResult(
        empirical_cost=report, set_points=z, total_time=path.total_time,
        accounted_time=t_acc, n_segments=n_seg, seed=config.seed,
        occupation_edges=occ.edges if occ else None,
        occupation_cdf=occ.cdf(t_acc)[inv] if occ else None,
        dwell_fractions=occ.fractions(inv, t_acc) if occ else None,
        trace_times=path.start_times[first:] if recorded else None,
        trace_x=np.concatenate(trace) if recorded else None,
        trace_wind=path.wind[first:] if recorded else None,
        trace_comfort=path.comfort[first:] if recorded else None,
    )


def empirical_cdf(result: SimulationResult):
    """(edges, per-load CDF matrix, aggregate CDF); requires occupation records."""
    if result.occupation_cdf is None:
        raise MissingOccupation("run with record_occupation=True")
    return result.occupation_edges, result.occupation_cdf, result.occupation_cdf.mean(axis=0)


def check_dominance(result: SimulationResult) -> tuple[bool, dict | None]:
    """Verify Z_i < Z_j implies x_i <= x_j at every recorded instant.

    Loads with equal set-points are coupled identically, so equality is
    allowed there; any violation returns its first (instant, pair).
    """
    if result.trace_x is None:
        raise MissingOccupation("run with record_trace=True")
    xs = result.trace_x
    diffs = np.diff(xs, axis=1)
    bad = np.argwhere(diffs < 0)
    if len(bad) == 0:
        return True, None
    row, col = bad[0]
    return False, {"instant": int(row), "pair": (int(col), int(col) + 1),
                   "x": (float(xs[row, col]), float(xs[row, col + 1]))}
