"""Frozen copy of the simulator before its recursion and accounting were
split: a per-segment vector loop over every load (a scalar loop for one
load) with per-load occupation accounting.  The tests compare the current
simulate against it; it is not used by the package.
"""

from __future__ import annotations

import numpy as np

from zpolicy.costs import CostReport
from zpolicy.model import advance_temperatures
from zpolicy.simulate import SimulationResult, sample_environment_path


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


def reference_simulate(config: SimulationConfig, env: MarkovEnvironment, params: LoadParams,
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
