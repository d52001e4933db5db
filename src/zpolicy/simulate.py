"""Event-driven Monte Carlo simulation of threshold-policy ensembles.

The environment path (wind and comfort jump times) is sampled first and
shared by every load; given the path, each temperature evolves
deterministically by the exact piecewise-linear flow, so the only
randomness is the common environment.  Cost accumulation uses exact
dwell-time accounting: the total grid draw is piecewise constant between
load events (parking arrivals, comfort-level crossings) whose times are
closed-form, and the squared draw is integrated segment by segment with
no sampling bias.  Occupation is likewise accumulated exactly: point
masses as parked dwell times, moving stretches as their (uniform in x)
time measure evaluated on a fixed grid of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostReport
from .distributions import ThresholdDistribution
from .errors import MissingOccupation
from .model import LoadParams, MarkovEnvironment, advance_temperatures

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


def _factor_path(generator: np.ndarray, state: int, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` jumps of one factor chain started in ``state``: the jump times
    (inf once an absorbing state is reached) and the ``n + 1`` states.

    Each jump's exponential variate is drawn up front, followed by one
    uniform per jump only when some state has more than one possible next
    state; a 2-state chain therefore draws exactly ``n`` exponentials.
    """
    rates = -np.diag(generator)
    exits = np.clip(generator, 0.0, None)
    np.fill_diagonal(exits, 0.0)
    variates = rng.standard_exponential(n)
    branching = bool(((exits > 0).sum(axis=0) > 1).any())
    u = rng.random(n) if branching else np.zeros(1)
    # step[k, s]: the state after jump k from state s (one row if none branches)
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
        # prefix doubling: row k becomes the map from the start through jump k
        span = 1
        while span < n:
            step[span:] = np.take_along_axis(step[span:], step[:-span], axis=1)
            span *= 2
        states[1:] = step[:, state]
    else:
        # one successor map f: states[k] = f^k(state), doubling k
        f, m = step[0], 1
        while m <= n:
            states[m:2 * m] = f[states[:min(m, n + 1 - m)]]
            f, m = f[f], 2 * m
    scales = np.full(len(rates), np.inf)     # an absorbing state never leaves
    np.divide(1.0, rates, out=scales, where=rates > 0)
    return np.cumsum(variates * scales[states[:-1]]), states


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
    wt, ws = _factor_path(env.wind_generator, w0, n_jumps, rng)
    ct, cs = _factor_path(env.comfort_generator, c0, n_jumps, rng)
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


class _Occupation:
    """Per-load exact occupation: parked dwell dictionary plus the time
    measure of moving stretches accumulated on a fixed edge grid."""

    def __init__(self, n_loads: int, edges: np.ndarray):
        self.n_loads = n_loads
        self.edges = edges
        self.moving_leq = np.zeros((n_loads, len(edges)))   # time with X <= edge
        self.dwell: dict[tuple[int, float], float] = {}
        self.time = 0.0
        cap = 65536
        self._cap = cap
        self._load = np.empty(cap, dtype=np.int64)
        self._lo = np.empty(cap)
        self._hi = np.empty(cap)
        self._dur = np.empty(cap)
        self._n = 0

    def add_dwell(self, load: int, location: float, duration: float):
        key = (load, round(location, 9))
        self.dwell[key] = self.dwell.get(key, 0.0) + duration

    def add_moving(self, load: int, lo: float, hi: float, duration: float):
        if hi - lo < 1e-14 or duration <= 0.0:
            return
        n = self._n
        self._load[n] = load
        self._lo[n] = lo
        self._hi[n] = hi
        self._dur[n] = duration
        self._n = n + 1
        if self._n == self._cap:
            self.flush()

    def flush(self):
        n = self._n
        if n == 0:
            return
        load = self._load[:n]
        lo, hi, dur = self._lo[:n], self._hi[:n], self._dur[:n]
        frac_scale = dur / (hi - lo)
        for ie, e in enumerate(self.edges):
            wgt = np.clip(e - lo, 0.0, None)
            np.minimum(wgt, hi - lo, out=wgt)
            self.moving_leq[:, ie] += np.bincount(load, weights=wgt * frac_scale,
                                                  minlength=self.n_loads)
        self._n = 0

    def cdf_values(self) -> np.ndarray:
        """Per-load occupation CDF at the edges (fractions of accounted time)."""
        self.flush()
        out = self.moving_leq.copy()
        for (load, loc), d in self.dwell.items():
            out[load, self.edges >= loc - 1e-9] += d
        return out / max(self.time, 1e-300)


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


def _run_single(path: EnvironmentPath, z0: float, env, params, config,
                occ: _Occupation | None):
    """Scalar fast path for one load: identical accounting, no numpy overhead."""
    h, c = params.h, params.c
    rates = [float(r) for r in params.wind_cooling_rates(env.n_wind)]
    levels = params.comfort_levels
    burn_time = config.burn_in * path.total_time
    tr_t, tr_x, tr_w, tr_c = [], [], [], []

    x = float(config.initial_temperature)
    int_g2 = 0.0
    int_disc = 0.0
    t_acc = 0.0
    wl = path.wind.tolist()
    cl = path.comfort.tolist()
    dl = path.durations.tolist()
    tl = path.start_times.tolist()

    for k in range(len(tl)):
        wind = wl[k]
        comf = cl[k]
        dur = dl[k]
        account = tl[k] >= burn_time
        theta = levels[comf]
        if account and config.record_trace:
            tr_t.append(tl[k])
            tr_x.append([x])
            tr_w.append(wind)
            tr_c.append(comf)

        if account:
            if x > theta:
                a = x - theta
                t_cl = a / c if a / c < dur else dur
                int_disc += (a * a * a - (a - c * t_cl) ** 3) / (3.0 * c)
            if wind == 0:
                park = z0 if z0 < theta else theta
                if x > theta:
                    t1 = (x - theta) / c
                    if t1 < dur:
                        int_g2 += (h + c) ** 2 * t1 + h * h * (dur - t1)
                    else:
                        int_g2 += (h + c) ** 2 * dur
                elif x < park:
                    t1 = (park - x) / h
                    if t1 < dur:
                        int_g2 += h * h * (dur - t1)
                else:
                    int_g2 += h * h * dur
            else:
                s_i = c - rates[wind]
                if s_i > 0 and x > theta:
                    t1 = (x - theta) / c
                    int_g2 += s_i * s_i * (t1 if t1 < dur else dur)
            t_acc += dur
            if occ is not None:
                occ.time += dur
                _record_occupation(occ, np.array([x]), np.array([z0]),
                                   wind, comf, dur, params, rates)
        # exact scalar flow
        if wind == 0:
            park = z0 if z0 < theta else theta
            if x > park:
                x = max(park, x - c * dur)
            elif x < park:
                x = min(park, x + h * dur)
        else:
            ci = rates[wind]
            if x > theta:
                t_hit = (x - theta) / c
                x = x - c * dur if dur <= t_hit else max(0.0, theta - ci * (dur - t_hit))
            else:
                x = max(0.0, x - ci * dur)
    return x, int_g2, int_disc, t_acc, tr_t, tr_x, tr_w, tr_c


def simulate(config: SimulationConfig, env: MarkovEnvironment, params: LoadParams,
             gamma: float) -> SimulationResult:
    """Run one replication; deterministic given the config seed."""
    rng = np.random.default_rng(config.seed)
    z = config.resolve_set_points(params)
    path = sample_environment_path(env, config.horizon_jumps, rng)
    n = config.n_loads
    h, c = params.h, params.c
    rates = params.wind_cooling_rates(env.n_wind)
    levels = params.comfort_levels

    burn_time = config.burn_in * path.total_time
    occ = _Occupation(n, np.linspace(0.0, params.theta_max, config.occupation_edges)) \
        if config.record_occupation else None
    tr_t, tr_x, tr_w, tr_c = [], [], [], []

    if n == 1:
        _, int_g2, int_disc, t_acc, tr_t, tr_x, tr_w, tr_c = _run_single(
            path, float(z[0]), env, params, config, occ)
        if occ is not None:
            occ.flush()
        power = int_g2 / max(t_acc, 1e-300)
        disc = int_disc / max(t_acc, 1e-300)
        report = CostReport(power_cost=power, discomfort_cost=disc, gamma=gamma)
        return SimulationResult(
            empirical_cost=report, set_points=z, total_time=path.total_time,
            accounted_time=t_acc, n_segments=len(path.start_times), seed=config.seed,
            occupation_edges=occ.edges if occ else None,
            occupation_cdf=occ.cdf_values() if occ else None,
            dwell_fractions=({k2: v / occ.time for k2, v in occ.dwell.items()}
                             if occ else None),
            trace_times=np.array(tr_t) if config.record_trace else None,
            trace_x=np.array(tr_x) if config.record_trace else None,
            trace_wind=np.array(tr_w) if config.record_trace else None,
            trace_comfort=np.array(tr_c) if config.record_trace else None,
        )

    x = np.full(n, float(config.initial_temperature))
    int_g2 = 0.0
    int_disc = 0.0
    t_acc = 0.0

    wind_arr = path.wind
    comf_arr = path.comfort
    dur_arr = path.durations
    t_arr = path.start_times

    for k in range(len(t_arr)):
        wind = int(wind_arr[k])
        comf = int(comf_arr[k])
        dur = float(dur_arr[k])
        account = t_arr[k] >= burn_time
        theta = levels[comf]

        if account and config.record_trace:
            tr_t.append(t_arr[k])
            tr_x.append(x.copy())
            tr_w.append(wind)
            tr_c.append(comf)

        viol = x > theta
        if wind == 0:
            park = np.minimum(z, theta)
            heating = x < park
            parked = ~viol & ~heating
            g0 = (h + c) * int(viol.sum()) + h * int(parked.sum())
            ev_t = np.concatenate([(park[heating] - x[heating]) / h,
                                   (x[viol] - theta) / c])
            ev_d = np.concatenate([np.full(int(heating.sum()), h),
                                   np.full(int(viol.sum()), -c)])
        else:
            ci = float(rates[wind])
            s_i = c - ci
            g0 = s_i * int(viol.sum())
            if s_i > 0:
                ev_t = (x[viol] - theta) / c
                ev_d = np.full(int(viol.sum()), -s_i)
            else:
                ev_t = np.empty(0)
                ev_d = np.empty(0)

        if account:
            live = ev_t < dur
            if live.any():
                order = np.argsort(ev_t[live], kind="stable")
                ts = ev_t[live][order]
                gs = g0 + np.concatenate([[0.0], np.cumsum(ev_d[live][order])])
                bounds = np.concatenate([[0.0], ts, [dur]])
                int_g2 += float(gs @ (np.diff(bounds) * gs))
            else:
                int_g2 += g0 * g0 * dur
            if viol.any():
                a = x[viol] - theta
                t_cl = np.minimum(a / c, dur)
                int_disc += float(np.sum((a**3 - (a - c * t_cl) ** 3) / (3.0 * c)))
            t_acc += dur

            if occ is not None:
                occ.time += dur
                _record_occupation(occ, x, z, wind, comf, dur, params, rates)

        x = advance_temperatures(x, z, wind, comf, dur, params, n_wind=env.n_wind)

    if occ is not None:
        occ.flush()

    power = int_g2 / max(t_acc, 1e-300) / n**2
    disc = int_disc / max(t_acc, 1e-300) / n
    report = CostReport(power_cost=power, discomfort_cost=disc, gamma=gamma)
    return SimulationResult(
        empirical_cost=report, set_points=z, total_time=path.total_time,
        accounted_time=t_acc, n_segments=len(t_arr), seed=config.seed,
        occupation_edges=occ.edges if occ else None,
        occupation_cdf=occ.cdf_values() if occ else None,
        dwell_fractions=({k2: v / occ.time for k2, v in occ.dwell.items()}
                         if occ else None),
        trace_times=np.array(tr_t) if config.record_trace else None,
        trace_x=np.array(tr_x) if config.record_trace else None,
        trace_wind=np.array(tr_w) if config.record_trace else None,
        trace_comfort=np.array(tr_c) if config.record_trace else None,
    )


def _record_occupation(occ: _Occupation, x, z, wind, comf, dur, params, rates):
    h, c = params.h, params.c
    theta = params.comfort_levels[comf]
    for i in range(len(x)):
        xi = float(x[i])
        rem = dur
        if wind == 0:
            park = min(float(z[i]), theta)
            if xi > park:
                t1 = min((xi - park) / c, rem)
                occ.add_moving(i, xi - c * t1, xi, t1)
                xi = xi - c * t1 if t1 < rem else park
                rem -= t1
            elif xi < park:
                t1 = min((park - xi) / h, rem)
                occ.add_moving(i, xi, xi + h * t1, t1)
                rem -= t1
                xi = xi + h * t1 if rem <= 0 else park
            if rem > 0:
                occ.add_dwell(i, xi, rem)
        else:
            if xi > theta:
                t1 = min((xi - theta) / c, rem)
                occ.add_moving(i, xi - c * t1, xi, t1)
                xi = xi - c * t1 if t1 < rem else theta
                rem -= t1
                if rem <= 0:
                    continue
            ci = float(rates[wind])
            if ci <= 0:
                occ.add_dwell(i, xi, rem)
                continue
            if xi > 0:
                t1 = min(xi / ci, rem)
                occ.add_moving(i, xi - ci * t1, xi, t1)
                rem -= t1
            if rem > 0:
                occ.add_dwell(i, 0.0, rem)


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
