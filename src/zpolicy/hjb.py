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
candidate is scored only on its box, the bounding box of the cells where
its load has room for extra power: outside it the extra is zero, so the
Hamiltonian is a copy of its order's first candidate, and a copy never
beats the strict minimum.  A candidate with an empty box is left out of
the table.  The boundary caps are applied only in the rows or columns
where they are finite.

A time step computes the one-sided gradients of the whole (n_env, nx, nx)
stack, scores only the gradient-dependent terms, and records the policy
only on the last step, the one returned, where the first of equal
candidates wins.  The other steps keep a running minimum, which gives the
same values.  Each solve makes one workspace of scratch arrays that every
step writes into, in the same order of operations as freshly allocated
arrays, so its values are those of the plain expressions bit for bit.

The minimizing structure matches the closed-form argmin of the quadratic
Hamiltonian: wind goes entirely to the load with the larger value-gradient
component, and free grid power is the clipped half-gradient on a single
load.  Regions where the cooler load receives the wind are the
desynchronizing part of the policy.

The coolest-first heuristic is the allocation rule alone: it maps the
loads' temperatures in one environment state to (wind, grid) power
arrays.  The package has no simulator for such rules; one that is exact
would have to follow the sliding motion of a load held at the comfort
level by a rule that gives it no power there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnstableScheme
from .model import LoadParams, MarkovEnvironment

__all__ = [
    "ValueGrid",
    "AllocationPolicy",
    "solve_hjb",
    "classify_policy",
    "coolest_first_heuristic",
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


class _Cap(NamedTuple):
    """A boundary cap on the cells of a box where it is finite: row and
    column slices of the box, and the cap's values there."""
    index: tuple[slice, slice]
    value: np.ndarray


class _Extra(NamedTuple):
    """The candidate that gives one load the clipped half-gradient as extra
    grid power, on top of its wind order's forced and holding power.  It is
    scored on its box, the bounding box of the cells where the load has
    room for extra power, and its arrays are cut to that box."""
    load: int
    box: tuple[slice, slice]
    room: np.ndarray          # the most extra grid power the load can take
    floor: _Cap | None        # h at x = 0, where the load may not cool
    top: _Cap | None          # 0 at the active top, where it may not heat


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


def _bounding_box(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Row and column slices of the smallest box that holds every True
    cell of ``mask``; None when there is none."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _cap_in(cap: np.ndarray, box: tuple[slice, slice]) -> _Cap | None:
    """``cap`` cut to ``box`` and, within it, to where the cap is finite."""
    cut = cap[box]
    finite = _bounding_box(np.isfinite(cut))
    return None if finite is None else _Cap(finite, cut[finite])


def _drift(h: float, power: np.ndarray, floor: _Cap | None, top: _Cap | None,
           out: np.ndarray) -> np.ndarray:
    """dx/dt of one load, into ``out``: h minus its power capped at h on the
    floor, with its heating capped at 0 at the active top.  Each cap is
    applied only where it is finite, since a minimum with inf is the
    identity; ``power`` is capped in place."""
    if floor is not None:
        capped = power[floor.index]
        np.minimum(capped, floor.value, out=capped)
    f = np.subtract(h, power, out=out)
    if top is not None:
        capped = f[top.index]
        np.minimum(capped, top.value, out=capped)
    return f


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
    share = params.wind_cooling_rates(env.n_wind) / c    # of the full-wind budget
    everywhere = (slice(None), slice(None))
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
                remaining = np.full((nx, nx), w_pow * share[iw])
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
            f = [_drift(h, pw[li] + g[li], _cap_in(floor_cap[li], everywhere),
                        _cap_in(top_cap[li], everywhere), np.empty((nx, nx)))
                 for li in (0, 1)]
            extras = []
            for li in (0, 1):
                room = np.clip(cap - pw[li] - g_base[li], 0.0, None)
                room = np.where(forced[li], 0.0, room)
                room = np.where(at_floor[li], np.clip(h - pw[li] - g_base[li], 0.0, None), room)
                # outside the box the extra is 0, so the candidate is a copy
                # of the one with no extra grid power, and a copy never wins
                box = _bounding_box(room > 0)
                if box is not None:
                    extras.append(_Extra(li, box, room[box], _cap_in(floor_cap[li], box),
                                         _cap_in(top_cap[li], box)))
            orders.append(_WindOrder(
                wind=(pw[0], pw[1]), grid=g, grid_total=g_base[0] + g_base[1],
                f_pos=(np.maximum(f[0], 0.0), np.maximum(f[1], 0.0)),
                f_neg=(np.minimum(f[0], 0.0), np.minimum(f[1], 0.0)),
                power_sq=(g[0] + g[1]) ** 2, extras=tuple(extras)))
        table.append(orders)
    return table


class _Workspace:
    """The scratch arrays of one solve, written by every backward step."""

    def __init__(self, n_env: int, nx: int):
        # one-sided differences, inward at the edges: each axis's forward
        # and backward differences are two views of one padded array
        self.d1 = np.empty((n_env, nx + 1, nx))
        self.d2 = np.empty((n_env, nx, nx + 1))
        self.grads = (self.d1[:, 1:, :], self.d1[:, :-1, :],
                      self.d2[:, :, 1:], self.d2[:, :, :-1])
        self.ham = np.empty((n_env, nx, nx))      # the cheapest Hamiltonian
        self.coupling = np.empty((n_env, nx, nx))
        self.terms = np.empty((4, nx, nx))        # drift terms with no extra grid power
        self.cand = np.empty((nx, nx))
        self.flat = np.empty((4, nx * nx))        # box-shaped scratch, contiguous

    def boxes(self, shape: tuple[int, int]) -> list[np.ndarray]:
        """Four scratch arrays of ``shape``."""
        n = shape[0] * shape[1]
        return [buf[:n].reshape(shape) for buf in self.flat]


def _one_sided_gradients(v: np.ndarray, dx: float, ws: _Workspace) -> None:
    """Forward/backward differences along each grid axis of the
    (n_env, nx, nx) stack into ``ws.grads``, one-sided inward at edges."""
    d1, d2 = ws.d1, ws.d2
    np.subtract(v[:, 1:, :], v[:, :-1, :], out=d1[:, 1:-1, :])
    d1[:, 1:-1, :] /= dx
    d1[:, 0, :] = d1[:, 1, :]
    d1[:, -1, :] = d1[:, -2, :]
    np.subtract(v[:, :, 1:], v[:, :, :-1], out=d2[:, :, 1:-1])
    d2[:, :, 1:-1] /= dx
    d2[:, :, 0] = d2[:, :, 1]
    d2[:, :, -1] = d2[:, :, -2]


def _keep_cheaper(best: np.ndarray, cand: np.ndarray, chosen, powers) -> None:
    """Lower ``best`` to ``cand`` where the candidate is cheaper.  With
    policy arrays ``chosen``, the first of equal candidates wins and its
    ``powers`` are written where it does; without, the running minimum is
    the same values, since no Hamiltonian is NaN or -0.0 (its first addend
    (g1 + g2)**2 never is)."""
    if not chosen:
        np.minimum(best, cand, out=best)
        return
    better = cand < best
    np.copyto(best, cand, where=better)
    for arr, new in zip(chosen, powers):
        np.copyto(arr, new, where=better)


def _score_extra(ex: _Extra, order: _WindOrder, e: int, h: float,
                 ws: _Workspace) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(Hamiltonian, powers) of an extra-power candidate on its box.  The
    extra changes only its own load's drift terms, so the other load's
    come from the order's candidate with no extra grid power."""
    li, box = ex.load, ex.box
    work, g, pos, cand = ws.boxes(ex.room.shape)
    # the clipped half-gradient: half the load's backward difference
    extra = np.multiply(0.5, ws.grads[2 * li + 1][e][box], out=work)
    extra -= order.grid_total[box]
    np.maximum(extra, 0.0, out=extra)
    np.minimum(extra, ex.room, out=extra)
    grid = [order.grid[0][box], order.grid[1][box]]
    grid[li] = np.add(grid[li], extra, out=g)
    f = _drift(h, np.add(order.wind[li][box], g, out=work), ex.floor, ex.top, out=work)
    np.maximum(f, 0.0, out=pos)
    pos *= ws.grads[2 * li][e][box]
    neg = np.minimum(f, 0.0, out=work)
    neg *= ws.grads[2 * li + 1][e][box]
    np.add(grid[0], grid[1], out=cand)
    np.square(cand, out=cand)
    terms = [t[box] for t in ws.terms]
    terms[2 * li], terms[2 * li + 1] = pos, neg
    for t in terms:
        cand += t
    return cand, (order.wind[0][box], order.wind[1][box], *grid)


def _backward_step(v: np.ndarray, table: list[list[_WindOrder]],
                   rates: list[tuple[int, int, float]], dx: float, dt: float,
                   h: float, ws: _Workspace,
                   policy: tuple[np.ndarray, np.ndarray] | None) -> None:
    """One explicit step from V(t + dt) to V(t), in place.  Each cell takes
    the first of its cheapest candidates; with ``policy`` given as (wind,
    grid) arrays, the winners' powers are written into them."""
    _one_sided_gradients(v, dx, ws)
    terms = ws.terms
    for e, orders in enumerate(table):
        grads = [gr[e] for gr in ws.grads]
        best = ws.ham[e]
        chosen = ()
        if policy is not None:
            chosen = (policy[0][e, :, :, 0], policy[0][e, :, :, 1],
                      policy[1][e, :, :, 0], policy[1][e, :, :, 1])
        for k, order in enumerate(orders):
            for t, f, grad in zip(terms, (order.f_pos[0], order.f_neg[0],
                                          order.f_pos[1], order.f_neg[1]), grads):
                np.multiply(f, grad, out=t)
            cand = best if k == 0 else ws.cand
            np.add(order.power_sq, terms[0], out=cand)
            for t in terms[1:]:
                cand += t
            powers = (*order.wind, *order.grid)
            if k == 0:
                for arr, new in zip(chosen, powers):
                    arr[...] = new
            else:
                _keep_cheaper(best, cand, chosen, powers)
            for ex in order.extras:
                cand, powers = _score_extra(ex, order, e, h, ws)
                _keep_cheaper(best[ex.box], cand, [arr[ex.box] for arr in chosen], powers)
    # sum over e2 of q[e2, e] * (V[e2] - V[e]), over the rates that are not
    # zero: the others add a signed zero, which leaves the sum as it is
    coupling, diff = ws.coupling, ws.cand       # no candidate is scored from here on
    coupling.fill(0.0)
    for e, e2, rate in rates:
        np.subtract(v[e2], v[e], out=diff)
        diff *= rate
        coupling[e] += diff
    ham = ws.ham
    ham += coupling
    ham *= dt
    v += ham


def solve_hjb(env: MarkovEnvironment, params: LoadParams, horizon: float,
              grid_step: float, time_step: float | None = None,
              wind_power: float | None = None,
              forced_power: float | None = None) -> tuple[ValueGrid, AllocationPolicy]:
    """Backward induction on the two-load STV control problem.

    W = wind_power (h + c by default) is the wind budget at full wind; wind
    state i gets W * wind_cooling_rates(n_wind)[i] / c, its share in the
    model.  time_step defaults to 0.9 of the bound grid_step / (h + c + W).

    Raises ValueError unless horizon, grid_step and time_step are finite
    and positive, grid_step is at most the top comfort level, and
    wind_power and forced_power are finite and nonnegative; raises
    UnstableScheme unless time_step <= grid_step / (h + c + W).
    """
    h, c = params.h, params.c
    w_pow = wind_power if wind_power is not None else h + c
    m_pow = forced_power if forced_power is not None else h + c
    for name, value in (("horizon", horizon), ("grid_step", grid_step)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if grid_step > params.theta_max:
        raise ValueError(f"grid_step {grid_step} exceeds the top comfort level {params.theta_max}")
    for name, value in (("wind_power", w_pow), ("forced_power", m_pow)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if time_step is None:
        time_step = 0.9 * grid_step / (h + c + w_pow)
    elif not (np.isfinite(time_step) and time_step > 0):
        raise ValueError(f"time_step must be finite and positive, got {time_step}")
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
    q = env.generator
    rates = [(e, e2, q[e2, e]) for e in range(env.n_states)
             for e2 in range(env.n_states) if e2 != e and q[e2, e] != 0.0]
    ws = _Workspace(env.n_states, nx)
    for k in range(n_steps):
        last = k == n_steps - 1
        _backward_step(v, table, rates, grid_step, time_step, h, ws,
                       (wind_split, grid_power) if last else None)

    grid_obj = ValueGrid(x=x, values=v, horizon=n_steps * time_step,
                         time_step=time_step)
    policy = AllocationPolicy(x=x, wind=wind_split, grid=grid_power,
                              wind_power=w_pow, forced_power=m_pow)
    return grid_obj, policy


def classify_policy(policy: AllocationPolicy, params: LoadParams,
                    env: MarkovEnvironment) -> np.ndarray:
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
                            wind_power: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(wind power, grid power) per load: wind goes to the coolest load
    when the ensemble runs hot.

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
    return wind_alloc, grid_alloc
