"""Two-load finite-horizon HJB solver for the stochastic-threshold-variation
model, plus the coolest-first heuristic it motivates.

State: (x1, x2) on a square grid, times a discrete environment index over
wind x comfort (the comfort level matters because a down-switch strands
loads above the new limit, where grid power is forced at the maximum M).
Backward induction with an explicit monotone scheme: every candidate
control is scored with one-sided differences chosen by its own drift sign,
and the cell takes the cheapest candidate (the first one listed on a tie).
The admissible set reflects at the boundaries (no cooling below 0,
mandatory holding power at the active comfort level) and forces P = M
above it.

The candidates of each environment state come in wind orders (one with
wind off, two with wind on: which load the wind serves first), and each
order lists no extra grid power, then the clipped half-gradient as extra
grid power on load 1, then on load 2.  Everything about a candidate that
does not depend on V is built once, before the time loop, into a
candidate table: the boundary masks, the wind split, the forced and
holding grid power, each load's room for extra grid power, and the whole
drift of the candidate with no extra grid power.  An extra-power
candidate whose room is zero in every cell is left out of the table: its
power is then that of its order's first candidate in every cell, so its
Hamiltonian is a copy, and a copy never beats the strict minimum.  A
time step computes the one-sided gradients of the whole (n_env, nx, nx)
stack, scores only the gradient-dependent terms, and records the policy
only on the last step, the one returned.

The minimizing structure matches the closed-form argmin of the quadratic
Hamiltonian: wind goes entirely to the load with the larger value-gradient
component, and free grid power is the clipped half-gradient on a single
load.  Regions where the cooler load receives the wind are the
desynchronizing part of the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnstableScheme
from .model import LoadParams, MarkovEnvironment, PowerDraw

__all__ = [
    "ValueGrid",
    "AllocationPolicy",
    "solve_hjb",
    "classify_policy",
    "coolest_first_heuristic",
    "simulate_policy",
]


@dataclass(frozen=True)
class ValueGrid:
    x: np.ndarray                    # shared axis for both loads
    values: np.ndarray               # (n_env, nx, nx) cost-to-go at t=0
    horizon: float
    time_step: float


@dataclass(frozen=True)
class AllocationPolicy:
    x: np.ndarray
    wind: np.ndarray                 # (n_env, nx, nx, 2) wind split
    grid: np.ndarray                 # (n_env, nx, nx, 2) grid power incl. forced
    wind_power: float
    forced_power: float


class _Extra(NamedTuple):
    """The candidate that gives one load the clipped half-gradient as extra
    grid power, on top of its wind order's forced and holding power."""
    load: int
    room: np.ndarray         # the most extra grid power the load can take
    floor_cap: np.ndarray    # h at x = 0, where the load may not cool; inf elsewhere
    top_cap: np.ndarray      # 0 at the active top, where it may not heat; inf elsewhere


class _WindOrder(NamedTuple):
    """One wind order of one environment state: every array of its
    candidates that does not depend on V."""
    wind: tuple[np.ndarray, np.ndarray]       # wind power per load
    grid: tuple[np.ndarray, np.ndarray]       # forced and holding grid power per load
    grid_total: np.ndarray                    # their sum
    f_pos: tuple[np.ndarray, np.ndarray]      # max(f, 0) per load, with no extra grid power
    f_neg: tuple[np.ndarray, np.ndarray]      # min(f, 0) per load, with no extra grid power
    power_sq: np.ndarray                      # (g1 + g2)**2, with no extra grid power
    extras: tuple[_Extra, ...]


def _drift(h: float, wind: np.ndarray, grid: np.ndarray, floor_cap: np.ndarray,
           top_cap: np.ndarray) -> np.ndarray:
    """dx/dt of one load: its power capped at h on the floor, and its
    heating capped at 0 at the active top."""
    return np.minimum(h - np.minimum(wind + grid, floor_cap), top_cap)


def _candidate_table(env: MarkovEnvironment, params: LoadParams, x: np.ndarray,
                     w_pow: float, m_pow: float) -> list[list[_WindOrder]]:
    """The wind orders of every environment state, in the order the
    backward step scores them."""
    h, c = params.h, params.c
    top = params.theta_max
    cap = h + c                                   # per-load total power cap
    nx = len(x)
    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    at_floor = (x1 <= 1e-12, x2 <= 1e-12)
    table = []
    for e in range(env.n_states):
        iw, jc = env.split_index(e)
        theta = params.comfort_levels[jc]
        forced = (x1 > theta + 1e-12, x2 > theta + 1e-12)
        at_top = (np.isclose(x1, theta) | np.isclose(x1, top),
                  np.isclose(x2, theta) | np.isclose(x2, top))
        floor_cap = [np.where(at_floor[li], h, np.inf) for li in (0, 1)]
        top_cap = [np.where(at_top[li] & ~forced[li], 0.0, np.inf) for li in (0, 1)]
        orders = []
        for order in ([(0, 1), (1, 0)] if iw >= 1 else [(0, 1)]):
            # wind allocation with boundary caps, first-listed load first
            pw = [np.zeros((nx, nx)), np.zeros((nx, nx))]
            if iw >= 1:
                remaining = np.full((nx, nx), w_pow)
                for li in order:
                    take = np.minimum(remaining, np.where(at_floor[li], h, cap))
                    pw[li] = take
                    remaining = remaining - take
            g_base = []
            for li in (0, 1):
                base = np.where(forced[li], np.clip(m_pow - pw[li], 0.0, None), 0.0)
                # mandatory holding power at the active top (f <= 0 there)
                lb = np.where(at_top[li] & ~forced[li], np.clip(h - pw[li], 0.0, None), 0.0)
                g_base.append(np.where(forced[li], base, lb))
            g = (g_base[0] + 0.0, g_base[1] + 0.0)   # plus zero extra: -0.0 becomes 0.0
            f = [_drift(h, pw[li], g[li], floor_cap[li], top_cap[li]) for li in (0, 1)]
            extras = []
            for li in (0, 1):
                room = np.clip(cap - pw[li] - g_base[li], 0.0, None)
                room = np.where(forced[li], 0.0, room)
                room = np.where(at_floor[li], np.clip(h - pw[li] - g_base[li], 0.0, None), room)
                # with no room anywhere the candidate is a copy of the one
                # with no extra grid power, and a copy never wins
                if room.any():
                    extras.append(_Extra(li, room, floor_cap[li], top_cap[li]))
            orders.append(_WindOrder(
                wind=(pw[0], pw[1]), grid=g, grid_total=g_base[0] + g_base[1],
                f_pos=(np.maximum(f[0], 0.0), np.maximum(f[1], 0.0)),
                f_neg=(np.minimum(f[0], 0.0), np.minimum(f[1], 0.0)),
                power_sq=(g[0] + g[1]) ** 2, extras=tuple(extras)))
        table.append(orders)
    return table


def _one_sided_gradients(v: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward/backward differences along each grid axis of the
    (n_env, nx, nx) stack, one-sided inward at edges.  Each axis's
    forward and backward differences are two views of one padded array."""
    n, nx, _ = v.shape
    d1 = np.empty((n, nx + 1, nx))
    np.subtract(v[:, 1:, :], v[:, :-1, :], out=d1[:, 1:-1, :])
    d1[:, 1:-1, :] /= dx
    d1[:, 0, :] = d1[:, 1, :]
    d1[:, -1, :] = d1[:, -2, :]
    d2 = np.empty((n, nx, nx + 1))
    np.subtract(v[:, :, 1:], v[:, :, :-1], out=d2[:, :, 1:-1])
    d2[:, :, 1:-1] /= dx
    d2[:, :, 0] = d2[:, :, 1]
    d2[:, :, -1] = d2[:, :, -2]
    return d1[:, 1:, :], d1[:, :-1, :], d2[:, :, 1:], d2[:, :, :-1]


def _candidates(order: _WindOrder, grads, half_grads, h: float):
    """Yield (Hamiltonian, grid power per load) of the wind order's
    candidates: first no extra grid power, then each load's extra.  An
    extra changes only its own load's drift terms, so the other load's
    are shared with the first candidate."""
    pos, neg = order.f_pos, order.f_neg
    terms = [pos[0] * grads[0], neg[0] * grads[1], pos[1] * grads[2], neg[1] * grads[3]]
    yield order.power_sq + terms[0] + terms[1] + terms[2] + terms[3], order.grid
    for ex in order.extras:
        li = ex.load
        extra = np.minimum(np.maximum(half_grads[li] - order.grid_total, 0.0), ex.room)
        g = list(order.grid)
        g[li] = order.grid[li] + extra
        f = _drift(h, order.wind[li], g[li], ex.floor_cap, ex.top_cap)
        t = list(terms)
        t[2 * li] = np.maximum(f, 0.0) * grads[2 * li]
        t[2 * li + 1] = np.minimum(f, 0.0) * grads[2 * li + 1]
        yield (g[0] + g[1]) ** 2 + t[0] + t[1] + t[2] + t[3], tuple(g)


def _backward_step(v: np.ndarray, table: list[list[_WindOrder]], q: np.ndarray,
                   dx: float, dt: float, h: float,
                   policy: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """One explicit step from V(t + dt) to V(t).  Each cell takes the first
    of its cheapest candidates; with ``policy`` given as (wind, grid)
    arrays, the winners' powers are written into them."""
    grads = _one_sided_gradients(v, dx)
    half_grads = (0.5 * grads[1], 0.5 * grads[3])
    ham = np.empty_like(v)
    for e, orders in enumerate(table):
        grads_e = [gr[e] for gr in grads]
        half_e = [hg[e] for hg in half_grads]
        scored = ((cand, (*order.wind, *g)) for order in orders
                  for cand, g in _candidates(order, grads_e, half_e, h))
        first, powers = next(scored)
        best = ham[e]
        best[...] = first
        chosen = ()
        if policy is not None:
            chosen = (policy[0][e, :, :, 0], policy[0][e, :, :, 1],
                      policy[1][e, :, :, 0], policy[1][e, :, :, 1])
            for arr, new in zip(chosen, powers):
                arr[...] = new
        for cand, powers in scored:
            better = cand < best
            np.copyto(best, cand, where=better)
            for arr, new in zip(chosen, powers):
                np.copyto(arr, new, where=better)
    # sum over e2 of q[e2, e] * (V[e2] - V[e]); the e2 == e term is a signed
    # zero, which leaves the sum as it is
    coupling = np.zeros_like(v)
    for e2 in range(len(q)):
        coupling += q[e2][:, None, None] * (v[e2] - v)
    return v + dt * (ham + coupling)


def solve_hjb(env: MarkovEnvironment, params: LoadParams, horizon: float,
              grid_step: float, time_step: float,
              wind_power: float | None = None,
              forced_power: float | None = None) -> tuple[ValueGrid, AllocationPolicy]:
    """Backward induction on the two-load STV control problem.

    Raises ValueError unless horizon, grid_step and time_step are finite
    and positive, grid_step is at most the top comfort level, and
    wind_power and forced_power are finite and nonnegative; raises
    UnstableScheme unless time_step <= grid_step / (h + c + W).
    """
    h, c = params.h, params.c
    w_pow = wind_power if wind_power is not None else h + c
    m_pow = forced_power if forced_power is not None else h + c
    for name, value in (("horizon", horizon), ("grid_step", grid_step),
                        ("time_step", time_step)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if grid_step > params.theta_max:
        raise ValueError(f"grid_step {grid_step} exceeds the top comfort level {params.theta_max}")
    for name, value in (("wind_power", w_pow), ("forced_power", m_pow)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if time_step > grid_step / (h + c + w_pow):
        raise UnstableScheme(
            f"time_step {time_step} > grid_step/(h+c+W) = {grid_step / (h + c + w_pow)}")

    x = np.arange(0.0, params.theta_max + 0.5 * grid_step, grid_step)
    nx = len(x)
    table = _candidate_table(env, params, x, w_pow, m_pow)
    n_steps = int(np.ceil(horizon / time_step))
    v = np.zeros((env.n_states, nx, nx))
    wind_split = np.zeros((env.n_states, nx, nx, 2))
    grid_power = np.zeros((env.n_states, nx, nx, 2))
    for k in range(n_steps):
        last = k == n_steps - 1
        v = _backward_step(v, table, env.generator, grid_step, time_step, h,
                           (wind_split, grid_power) if last else None)

    grid_obj = ValueGrid(x=x, values=v, horizon=n_steps * time_step,
                         time_step=time_step)
    policy = AllocationPolicy(x=x, wind=wind_split, grid=grid_power,
                              wind_power=w_pow, forced_power=m_pow)
    return grid_obj, policy


def classify_policy(policy: AllocationPolicy, values: ValueGrid,
                    params: LoadParams, env: MarkovEnvironment) -> np.ndarray:
    """Label each cell synchronizing (-1), neutral (0) or desynchronizing (+1)
    by the sign of d|x1 - x2|/dt under the extracted policy."""
    h = params.h
    x = policy.x
    nx = len(x)
    labels = np.zeros((env.n_states, nx, nx), dtype=int)
    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    for e in range(env.n_states):
        p1 = policy.wind[e, :, :, 0] + policy.grid[e, :, :, 0]
        p2 = policy.wind[e, :, :, 1] + policy.grid[e, :, :, 1]
        f1 = h - p1
        f2 = h - p2
        gap_drift = np.sign(x1 - x2) * (f1 - f2)
        labels[e] = np.where(np.isclose(x1, x2), 0,
                             np.where(gap_drift > 1e-9, 1,
                                      np.where(gap_drift < -1e-9, -1, 0)))
    return labels


def coolest_first_heuristic(x, wind: int, comfort: int, params: LoadParams,
                            activation_threshold: float,
                            wind_power: float | None = None) -> list[PowerDraw]:
    """Allocate wind to the coolest load when the ensemble runs hot.

    With ample wind every load cools at full power.  When wind is scarce
    and the mean temperature exceeds the activation threshold, the entire
    wind budget goes to the coolest load still above the floor (hedging the
    next comfort down-switch); otherwise hottest-first.  Loads above the
    active comfort level always get forced cooling, grid-supplemented.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    h, c = params.h, params.c
    theta = params.comfort_levels[comfort]
    w_avail = (wind_power if wind_power is not None else h + c) if wind >= 1 else 0.0
    need = np.where(x > 1e-12, h + c, h)

    wind_alloc = np.zeros(n)
    if w_avail >= need.sum():
        wind_alloc[:] = need
    elif w_avail > 0:
        if x.mean() > activation_threshold:
            order = np.argsort(x, kind="stable")            # coolest first
        else:
            order = np.argsort(-x, kind="stable")           # hottest first
        rem = w_avail
        for i in order:
            take = min(rem, need[i])
            wind_alloc[i] = take
            rem -= take
            if rem <= 0:
                break
    grid_alloc = np.where(x > theta + 1e-12,
                          np.clip(h + c - wind_alloc, 0.0, None), 0.0)
    return [PowerDraw(wind_power=float(wind_alloc[i]), grid_power=float(grid_alloc[i]))
            for i in range(n)]


def simulate_policy(policy_fn, env: MarkovEnvironment, params: LoadParams,
                    n_loads: int, horizon_jumps: int, seed: int,
                    dt_max: float = 0.05, initial=None) -> dict:
    """Small fixed-step ensemble integrator for allocation-policy plug-ins.

    policy_fn(x, wind, comfort, params) -> list[PowerDraw].  Returns the
    time series of total grid power and its peak; intended for qualitative
    policy comparisons, not exact cost evaluation.
    """
    from .simulate import sample_environment_path

    rng = np.random.default_rng(seed)
    path = sample_environment_path(env, horizon_jumps, rng)
    x = np.array(initial, dtype=float) if initial is not None \
        else np.zeros(n_loads)
    times, grid_draw = [], []
    t = 0.0
    for k in range(len(path.start_times)):
        wind = int(path.wind[k])
        comfort = int(path.comfort[k])
        remaining = float(path.durations[k])
        theta = params.comfort_levels[comfort]
        while remaining > 1e-12:
            dt = min(dt_max, remaining)
            draws = policy_fn(x, wind, comfort, params)
            total_grid = sum(d.grid_power for d in draws)
            p = np.array([d.wind_power + d.grid_power for d in draws])
            x = np.clip(x + (params.h - p) * dt, 0.0, params.theta_max)
            times.append(t)
            grid_draw.append(total_grid)
            t += dt
            remaining -= dt
    grid_draw = np.array(grid_draw)
    return {"t": np.array(times), "grid_power": grid_draw,
            "peak_grid_power": float(grid_draw.max(initial=0.0))}
