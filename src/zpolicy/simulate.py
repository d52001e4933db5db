"""Event-driven Monte Carlo simulation of threshold-policy ensembles.

The environment path (wind and comfort jump times) is sampled first and
shared by every load.  Given the path, each temperature evolves
deterministically by the exact piecewise-linear flow, so the only
randomness is the common environment, and loads with equal set-points
follow identical trajectories.

A run has two stages.  Sampling draws the path from default_rng(seed)
and keeps it as a SampledEpisode: its comfort-level, cooling-rate,
duration and wind columns, the grid draw of a load at its target, the
burn-in index and the accounted time.  Running replays the episode for a
set-point vector.  Its recursion gives the entry temperature of every
segment for every distinct set-point: model.flow_paths computes it in
windows of whole blocks, one call per window, and picks per window
between its scalar loop and its lockstep path, which give the same bits.
For each block, every distinct load's event time (when it reaches its
target: its hold point with wind off, Theta under wind), its grid draw
before the event and its discomfort column are derived once.  The
accounting then works on whole (segments x distinct loads) arrays, block
by block, with each distinct load counted by its multiplicity:

- grid power comes from grid_power and changes at most once per load and
  segment, so sorting each segment's event times gives the aggregate draw
  as a step function and the integral of its square exactly;
- discomfort, the integral of (x - Theta)^2 above the comfort level, is
  closed-form;
- occupation is exact: parked time per dwell location, and moving
  stretches (uniform in x) as prefix sums evaluated on a fixed grid of
  edges.

A block (_BLOCK segments) is the unit of every sum, and within it the
work runs in tiles of about _TILE_CELLS load-segments, so that each
pass over a tile stays in cache.  The columns are derived in tiles of
rows, and the grid-power products in tiles of rows written into one
block-sized array that is summed once; both are elementwise, so their
tiles cannot change a bit.  The occupation runs in tiles of loads.
Each distinct load owns its own occupation bins and dwell keys, so a
tile adds only into its own loads', and every bin still receives its
load's values in segment order, as one pass over the whole block would
add them.  The per-block matrix products with the multiplicities run on
the whole block, whose layout fixes their summation order.

Windows carry the temperatures across and blocks the sums and the
occupation, so one run's memory stays O(window x distinct loads) however
long the path; a window holds about _WINDOW_CELLS load-segments.  The
episode itself is O(segments), seven numpy columns or 56 bytes a
segment.  simulate samples an episode and runs it once.  The heuristic
samples one per replication seed and replays it for every candidate,
bitwise as simulate would score that candidate.  A replayed episode
keeps one column table: per kept set-point and accounted segment, the
entry temperature, the event time, the grid draw before the event and
the discomfort column, 32 bytes.  A replay walks only the set-points not
in the table, writes their columns into it and reads every block from
it.  The table holds every set-point run so far while they number at
most n_loads, and else only the last run's, so its memory is bounded by
one run over n_loads distinct set-points however many candidates it
scores.  simulate's one run keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostReport
from .distributions import ThresholdDistribution
from .errors import MissingOccupation
from .model import (
    LoadParams, MarkovEnvironment, _check_integers, _draw_jumps, _FactorChain, _walk, child_seed,
    flow_paths, grid_power,
)

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "EnvironmentPath",
    "SampledEpisode",
    "sample_environment_path",
    "sample_episode",
    "run_episode",
    "simulate",
    "empirical_cdf",
    "check_dominance",
    "child_seed",
]


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
        _check_integers(self, ("n_loads", "horizon_jumps", "occupation_edges"))
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
        """Ascending set-points, a -0.0 read as 0.0; InvalidSetPoint unless
        all lie in [0, Theta_C]."""
        if self.set_points is not None:
            z = np.sort(np.asarray(self.set_points, dtype=float))
        elif self.distribution is not None:
            z = self.distribution.sample_quantiles(self.n_loads)
        else:
            raise ValueError("config needs set_points or a distribution")
        if len(z) != self.n_loads:
            raise ValueError("set_points length must equal n_loads")
        params.check_set_points(z)
        return z + 0.0          # adding 0.0 turns -0.0 into 0.0


@dataclass(frozen=True)
class EnvironmentPath:
    start_times: np.ndarray
    wind: np.ndarray
    comfort: np.ndarray
    durations: np.ndarray

    @property
    def total_time(self) -> float:
        return float(self.start_times[-1] + self.durations[-1])


def sample_environment_path(env: MarkovEnvironment, n_jumps: int,
                            rng: np.random.Generator) -> EnvironmentPath:
    """Sample ``n_jumps`` transitions of the joint chain, starting from a
    draw of its stationary distribution.

    The wind and comfort factors are independent chains, walked as two
    rows of one batch, wind's drawn first: each takes ``n_jumps`` jumps and
    the merged sorted jump times leave at least ``n_jumps`` joint
    transitions.  The path ends early if both factors reach absorbing states.
    """
    w0, c0 = env.split_index(int(rng.choice(env.n_states, p=env.stationary())))
    chain, rows = _FactorChain(env.wind_generator, env.comfort_generator), np.arange(2)
    variates = _draw_jumps(chain, rows, [rng, rng], n_jumps)
    (wt, ct), (ws, cs) = _walk(chain, rows, [w0, c0], *variates)
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
_WINDOW_CELLS = 1 << 18     # load-segments per recursion window, in whole blocks
_TILE_CELLS = 1 << 15       # load-segments per accounting tile within a block


class _Kept:
    """The column table a replayed episode keeps between runs: for each
    kept set-point z[j] (ascending) and accounted segment s, columns[:, s, j]
    holds its entry temperature, its event time, its grid draw before the
    event and its discomfort a^3 - cooled^3 (see _columns).  A keeping run
    reads every block from it; a one-shot run starts from an empty one."""

    def __init__(self):
        self.z = np.empty(0)
        self.columns = np.empty((4, 0, 0))


@dataclass(frozen=True)
class SampledEpisode:
    """An environment path drawn from default_rng(config.seed), with what
    every run over it reads: the segments' comfort level ``theta``, wind
    cooling rate ``ci`` and the grid draw ``g1`` of a load at its target,
    the first accounted segment and the accounted time.  Only the config's
    seed, horizon and burn-in shape it; run_episode reads the rest of the
    config, and keeps its per-set-point columns in ``kept``."""

    config: SimulationConfig
    params: LoadParams
    path: EnvironmentPath
    theta: np.ndarray
    ci: np.ndarray
    g1: np.ndarray
    first: int
    accounted_time: float
    kept: _Kept = field(default_factory=_Kept, init=False, repr=False, compare=False)


def sample_episode(config: SimulationConfig, env: MarkovEnvironment,
                   params: LoadParams) -> SampledEpisode:
    """Sample the episode of one replication; deterministic given the seed.
    Raises ValueError unless params and env agree (check_environment)."""
    params.check_environment(env)
    rng = np.random.default_rng(config.seed)
    path = sample_environment_path(env, config.horizon_jumps, rng)
    theta = np.asarray(params.comfort_levels)[path.comfort]
    ci = params.wind_cooling_rates(env.n_wind)[path.wind]
    # at its target every load draws what one parked at Theta draws (h with
    # wind off, nothing under wind), so one column holds that power for all
    g1 = grid_power(theta, theta, theta, params.h, params.c, ci, path.wind)
    n_seg = len(path.start_times)
    first = int(np.searchsorted(path.start_times, config.burn_in * path.total_time))
    # accounted time, summed in segment order as the parked totals are: a
    # load that never moves has an occupation CDF of exactly 1
    t_acc = float(np.cumsum(path.durations[first:])[-1]) if first < n_seg else 0.0
    return SampledEpisode(config=config, params=params, path=path, theta=theta, ci=ci, g1=g1,
                          first=first, accounted_time=t_acc)


class _Occupation:
    """Exact occupation of the distinct loads, accumulated block by block.

    A moving stretch from lo to hi at constant speed spends w*(min(e, hi) -
    min(e, lo)) time at or below e, with w = duration/(hi - lo).  Summed
    over the stretches that is e*S(e) - T(e): S sums w over the stretches
    with lo < e less those with hi < e, and T sums w*lo and w*hi likewise.
    S and T are binned by the first edge above lo (or hi) and summed up the
    edges at the end.  Parked time is summed per dwell key (load, location),
    the location exactly where the flow parks the load: min(z, Theta_k) with
    wind off and the floor 0 under wind.
    """

    def __init__(self, zd: np.ndarray, levels: np.ndarray, edges: np.ndarray):
        self.edges = edges
        self.n_bins = len(edges) + 1
        # edges are evenly spaced from 0 (np.linspace), so edges[k] is k*step
        # to an ulp, and the first edge above v is floor(v/step) + 1 within one
        span = float(edges[-1])
        self.scale = (len(edges) - 1) / span if span > 0 else None
        self.bounds = np.concatenate([[np.nan], edges, [np.nan]])   # NaN compares false
        self.s = np.zeros(len(zd) * self.n_bins)
        self.t = np.zeros(len(zd) * self.n_bins)
        # dwell slot k < C: parked at comfort level k; slot C: the floor
        spots = np.column_stack([np.minimum.outer(zd, levels), np.zeros(len(zd))])
        index: dict[tuple[int, float], int] = {}
        self.slot_key = np.array([[index.setdefault((j, loc), len(index))
                                   for loc in row] for j, row in enumerate(spots.tolist())])
        self.keys = list(index)
        self.dwell = np.zeros(len(index))

    def add(self, j0: int, x, event, z, theta, ci, dur, wind, comfort, h: float, c: float):
        """One tile of a block: entry temperatures x and event times (segments x
        the distinct loads j0, j0 + 1, ..., as run_episode derives them), their
        set-points z and the segments' comfort level, wind cooling rate,
        duration, wind and comfort states as columns.  Loads own disjoint bins
        and dwell keys, so tiles of one block add into them in any order, and
        each bin and key sees its load's segments in order whichever way the
        tile is laid out: it is worked as loads x segments, rows contiguous."""
        x, event = np.ascontiguousarray(x.T), np.ascontiguousarray(event.T)
        theta, ci, dur, wind, comfort = theta.T, ci.T, dur.T, wind.T, comfort.T
        n_loads, n_seg = x.shape
        target = _target(z[:, None], theta, wind)
        off = wind == 0
        down = x > target
        # first stretch: to the hold point with wind off, down to Theta under wind
        t1 = np.where(down | off, event, 0.0)
        y = np.where(down, x - c * t1, x + h * t1)
        rem = dur - t1
        # second stretch: under wind, down toward the floor
        t2 = np.where(~off & (rem > 0) & (y > 0),
                      np.minimum(y / np.where(off, np.inf, ci), rem), 0.0)
        # each stretch's live cells, stretch 1 first
        parts = []
        for lo, hi, took in ((np.minimum(x, y), np.maximum(x, y), t1), (y - ci * t2, y, t2)):
            span = hi - lo
            i = np.flatnonzero((span >= 1e-14) & (took > 0))
            parts.append((lo.take(i), hi.take(i), took.take(i) / span.take(i),
                          i // n_seg * self.n_bins))
        lo, hi, w, col = (np.concatenate(p) for p in zip(*parts))
        bins = np.concatenate([self._bin(lo) + col, self._bin(hi) + col])
        size = n_loads * self.n_bins
        own = slice(j0 * self.n_bins, j0 * self.n_bins + size)
        self.s[own] += np.bincount(bins, weights=np.concatenate([w, -w]), minlength=size)
        self.t[own] += np.bincount(bins, weights=np.concatenate([w * lo, -w * hi]),
                                   minlength=size)
        # parked time, added in segment order after the running totals
        parked = rem - t2
        keys = self.slot_key[j0:j0 + n_loads][
            :, np.where(off, comfort, self.slot_key.shape[1] - 1).ravel()]
        live = parked > 0
        self.dwell = np.bincount(np.concatenate([np.arange(len(self.dwell)), keys[live]]),
                                 weights=np.concatenate([self.dwell, parked[live]]),
                                 minlength=len(self.dwell))

    def _bin(self, v: np.ndarray) -> np.ndarray:
        """np.searchsorted(self.edges, v, side="right"): the number of edges
        at or below each value, guessed from the spacing and corrected by one
        comparison each way against the edges themselves."""
        if self.scale is None:
            return np.searchsorted(self.edges, v, side="right")
        n = len(self.edges)
        i = np.clip(np.floor(v * self.scale) + 1.0, 0.0, n).astype(np.intp)
        i -= self.bounds[i] > v            # bounds[i] is edges[i - 1]
        i += self.bounds[i + 1] <= v       # bounds[i + 1] is edges[i]
        return i

    def cdf(self, time: float) -> np.ndarray:
        """Occupation CDF of each distinct load at the edges (fractions of time)."""
        s = np.cumsum(self.s.reshape(-1, self.n_bins), axis=1)[:, :-1]
        t = np.cumsum(self.t.reshape(-1, self.n_bins), axis=1)[:, :-1]
        out = self.edges * s - t
        for (j, loc), v in zip(self.keys, self.dwell.tolist()):
            out[j, self.edges >= loc] += v
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


def _target(z, theta, wind):
    """Each load's target in each segment: its hold point with wind off,
    Theta under wind."""
    return np.where(wind == 0, np.minimum(z, theta), theta)


def _columns(x, z, theta, ci, dur, wind, h: float, c: float, out: np.ndarray):
    """For entry temperatures x of one tile (segments x set-points z), into
    out (3 x segments x set-points): the event time, at which a load
    reaches its target, capped at the segment's duration; the grid draw
    before the event (grid_power); and the discomfort a^3 - cooled^3 of the
    excess a over Theta, which cools at c."""
    target = _target(z, theta, wind)
    np.minimum(np.where(x > target, (x - target) / c, (target - x) / h), dur, out=out[0])
    out[1] = grid_power(x, z, theta, h, c, ci, wind)
    a = np.maximum(x - theta, 0.0)
    cooled = a - c * np.minimum(a / c, dur)
    np.subtract(a * a * a, cooled * cooled * cooled, out=out[2])


def _tiles(n: int, width: int) -> list[slice]:
    """Consecutive slices of range(n), each of at least one index and of
    about _TILE_CELLS cells when every index stands for ``width`` of them."""
    step = max(_TILE_CELLS // width, 1)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _block_costs(event, g0, cubes, g1, dur, weight, c: float):
    """(integral of (sum of grid power)^2, summed integral of (x - Theta)_+^2)
    over one block, from its columns (segments x distinct loads, _columns)
    counted with the multiplicities ``weight``.

    A load's grid power changes at most once in a segment, from g0 to the
    g1 of a load at its target, at its event time.  Sorting each row's
    event times makes the aggregate piecewise constant between them.
    Above Theta a load cools at c, so its discomfort integral is cubic.
    The rows are walked in tiles of about _TILE_CELLS cells; the products
    land in one array, summed once as a whole.
    """
    start = g0 @ weight
    terms = np.empty((len(event), event.shape[1] + 1))
    for r in _tiles(len(event), event.shape[1] + 1):
        order = np.argsort(event[r], axis=1)
        steps = np.take_along_axis((g1[r] - g0[r]) * weight, order, axis=1)
        level = np.cumsum(np.concatenate([start[r, None], steps], axis=1), axis=1)
        width = np.diff(np.take_along_axis(event[r], order, axis=1), axis=1, prepend=0.0,
                        append=dur[r])
        np.multiply(level * level, width, out=terms[r])
    return float(np.sum(terms)), float(np.sum(cubes @ weight)) / (3.0 * c)


def run_episode(episode: SampledEpisode, z: np.ndarray, gamma: float) -> SimulationResult:
    """Run the set-points ``z`` over a sampled episode, with the initial
    temperature and the recording options of the episode's config.  ``z``
    is ascending and within [0, Theta_C], as resolve_set_points returns it.

    Loads with equal set-points follow one trajectory, so the recursion and
    the accounting run once per distinct set-point, counted by multiplicity.
    The episode keeps each distinct set-point's columns in one table, so a
    replay walks only those it has not kept: all set-points run so far
    while they number at most config.n_loads, and else this run's.
    """
    return _run(episode, z, gamma, keep=True)


def _run(episode: SampledEpisode, z: np.ndarray, gamma: float, keep: bool) -> SimulationResult:
    """run_episode; unless ``keep``, from an empty table: episode.kept is not read or changed."""
    config, params, path = episode.config, episode.params, episode.path
    zd, inv = np.unique(z, return_inverse=True)
    weight = np.bincount(inv).astype(float)
    h, c = params.h, params.c
    first, t_acc = episode.first, episode.accounted_time
    n_seg = len(path.start_times)
    occ = _Occupation(zd, np.asarray(params.comfort_levels),
                      np.linspace(0.0, params.theta_max, config.occupation_edges)) \
        if config.record_occupation else None
    # the table holds the columns of the set-points tz, and this run walks
    # the fresh ones.  A keeping run with fresh set-points builds a new
    # table, filled up front with the kept columns it retains
    kept = episode.kept if keep else _Kept()
    fresh = np.setdiff1d(zd, kept.z)
    tz, table = kept.z, kept.columns
    if keep and len(fresh):
        union = np.union1d(kept.z, zd)
        tz = union if len(union) <= config.n_loads else zd
        table = np.empty((4, n_seg - first, len(tz)))
        retained = np.isin(kept.z, tz)
        if retained.any():
            table[:, :, np.searchsorted(tz, kept.z[retained])] = kept.columns[:, :, retained]
    put, take = np.searchsorted(tz, fresh), np.searchsorted(tz, zd)

    int_g2 = int_disc = 0.0
    trace = [np.empty((0, len(z)))]
    columns = (episode.theta, episode.ci, path.durations, path.wind)
    # windows: whole blocks, as few as hold about _WINDOW_CELLS each
    n_windows = max(round(len(fresh) * n_seg / _WINDOW_CELLS), 1)
    window = _BLOCK * -(-n_seg // (_BLOCK * n_windows))
    # the fresh set-points' event, draw and discomfort columns of a block
    fill = np.empty((3, min(_BLOCK, n_seg - first), len(fresh)))
    x_end = config.initial_temperature
    for w0 in range(0, n_seg, window):
        if len(fresh):
            xw = flow_paths(x_end, fresh, h, c, *(a[w0:w0 + window] for a in columns))
            x_end = xw[-1]
        for s in range(w0, min(w0 + window, n_seg), _BLOCK):
            stop = min(s + _BLOCK, n_seg)
            if first >= stop:
                continue                                  # burn-in only
            acc = slice(max(first, s), stop)
            rows = slice(acc.start - first, stop - first)     # of the table
            theta, ci, dur, wind, g1 = (a[acc, None] for a in (*columns, episode.g1))
            if len(fresh):
                xs = xw[acc.start - w0:stop - w0]
                cols = (xs, *fill[:, :len(xs)])
                for r in _tiles(len(xs), len(fresh)):
                    _columns(xs[r], fresh, theta[r], ci[r], dur[r], wind[r], h, c, fill[:, r])
                if keep:
                    table[:, rows, put] = cols
            if keep:
                # np.take, not table[:, rows, take]: the fancy index is not
                # C-contiguous, and g0 @ weight would move by an ulp
                cols = np.take(table[:, rows], take, axis=2)
            g2, disc = _block_costs(*cols[1:], g1, dur, weight, c)
            int_g2 += g2
            int_disc += disc
            if occ is not None:
                comfort = path.comfort[acc, None]
                for j in _tiles(len(zd), len(theta)):
                    occ.add(j.start, cols[0][:, j], cols[1][:, j], zd[j], theta, ci, dur, wind,
                            comfort, h, c)
            if config.record_trace:
                trace.append(cols[0][:, inv])
    if keep:
        kept.z, kept.columns = tz, table

    n = len(z)
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


def simulate(config: SimulationConfig, env: MarkovEnvironment, params: LoadParams,
             gamma: float) -> SimulationResult:
    """Run one replication; deterministic given the config seed.  Its
    episode is run once, so it keeps no columns."""
    z = config.resolve_set_points(params)
    return _run(sample_episode(config, env, params), z, gamma, keep=False)


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
