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
drift of the candidate with no extra grid power, each as a (2, nx, nx)
stack with one layer per load.  The wind split is _wind_split, the rule
the coolest-first heuristic uses too: the budget goes to the loads in a
priority order, each up to h + c, or h at the floor.  An extra-power
candidate is scored only on its box, the bounding box of the cells where
its load has room for extra power: outside it the extra is zero, so the
Hamiltonian is a copy of its order's first candidate, and a copy never
beats the strict minimum.  A candidate with an empty box is left out of
the table.  Its boundary caps are applied only in the rows or columns
where they are finite.

The grid holds the multiples of grid_step in [0, Theta_C], Theta_C the top
comfort level: a node above it would lie outside the state space.

Every candidate's Hamiltonian is (g1 + g2)**2 + T1 + T2, with one upwind
term per load, T_i = f_i * D_i (_upwind): the drift times the forward
difference where f_i > 0 and the backward one elsewhere (the Markov-chain
approximation of Kushner & Dupuis).  It is bitwise the sum of the two
signed products max(f, 0) * D+ and min(f, 0) * D-: in every cell one of
them is a signed zero, every partial sum starts at (g1 + g2)**2 >= +0.0
and so is never -0.0, and adding a signed zero to such a sum leaves it as
it is.  An extra-power candidate takes the other load's term from its
order.

A time step computes the one-sided gradients of the whole (n_env, nx, nx)
stack, scores only the gradient-dependent terms, and records the policy
only on the last step, the one returned, where the first of equal
candidates wins.  The other steps keep a running minimum, which gives the
same values.  Each solve makes one workspace of scratch arrays that every
step writes into, in the same order of operations as freshly allocated
arrays, so its values are those of the plain expressions bit for bit.
The workspace, which holds the policy arrays too, is made before the
candidate table, and each wind order and each extra-power candidate holds
the views of it that its step reads or writes, cut to its box: so a step
slices nothing and builds no list, and calls only ufuncs.  The last step
also reports the (min, max) of its rate dV/dt, ValueGrid.rate_bracket.

The minimizing structure matches the closed-form argmin of the quadratic
Hamiltonian: wind goes entirely to the load with the larger value-gradient
component, and free grid power is the clipped half-gradient on a single
load.  Regions where the cooler load receives the wind are the
desynchronizing part of the policy.  classify_policy(policy, params)
labels every cell of every environment state by the sign of d|x1 - x2|/dt.

The coolest-first heuristic is the allocation rule alone: it maps the
loads' temperatures in one environment state to (wind, grid) power
arrays.  Its n_wind argument, the number of wind states, has no default:
wind state i of an n_wind-state chain gets the share
wind_cooling_rates(n_wind)[i] / c of the full-wind budget, as in the HJB.
The package has no simulator for such rules; one that is exact would have
to follow the sliding motion of a load held at the comfort level by a
rule that gives it no power there.
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
    # (min, max) over the cells of the last step's rate dV/dt, the
    # Hamiltonian plus the coupling: it narrows as the horizon grows
    rate_bracket: tuple[float, float]


@dataclass(frozen=True)
class AllocationPolicy:
    x: np.ndarray
    wind: np.ndarray                 # (n_env, nx, nx, 2) wind split
    grid: np.ndarray                 # (n_env, nx, nx, 2) grid power incl. forced
    wind_power: float
    forced_power: float


class _Cap(NamedTuple):
    """A boundary cap on the cells of a box where it is finite: those cells
    of the extra's drift scratch, and the cap's values there."""
    cells: np.ndarray
    value: np.ndarray


class _Extra(NamedTuple):
    """The candidate that gives one load the clipped half-gradient as extra
    grid power, on top of its wind order's forced and holding power.  It is
    scored on its box, the bounding box of the cells where the load has
    room for extra power, and holds every array its step reads or writes,
    cut to that box."""
    load: int
    room: np.ndarray          # the most extra grid power the load can take
    floor: _Cap | None        # h at x = 0, where the load may not cool
    top: _Cap | None          # 0 at the active top, where it may not heat
    base: np.ndarray          # the load's forced and holding grid power
    base_total: np.ndarray    # that of both loads
    fwd: np.ndarray           # the load's forward and backward differences
    bwd: np.ndarray
    work: np.ndarray          # scratch: the extra power, then the load's drift
    terms: tuple[np.ndarray, np.ndarray]  # upwind term per load: its own in scratch
    cand: np.ndarray          # scratch: its Hamiltonian
    best: np.ndarray          # the state's cheapest Hamiltonian
    powers: tuple[np.ndarray, ...]   # wind and grid power per load, its own grid in scratch
    chosen: tuple[np.ndarray, ...]   # the state's policy arrays


class _WindOrder(NamedTuple):
    """One wind order of one environment state: the arrays of its
    candidate with no extra grid power that do not depend on V, and the
    views of the workspace and policy arrays its step reads or writes."""
    upwind: tuple[tuple[np.ndarray, ...], ...]  # per load, _upwind's (f, fwd, bwd, out, up)
    power_sq: np.ndarray      # (g1 + g2)**2
    terms: tuple[np.ndarray, np.ndarray]  # upwind term per load
    cand: np.ndarray          # its Hamiltonian: the state's cheapest for the first order
    best: np.ndarray          # the state's cheapest Hamiltonian
    powers: tuple[np.ndarray, ...]   # wind and grid power per load
    chosen: tuple[np.ndarray, ...]   # the state's policy arrays
    extras: tuple[_Extra, ...]


def _bounding_box(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Row and column slices of the smallest box that holds every True
    cell of ``mask``; None when there is none."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _cap_in(cap: np.ndarray, box: tuple[slice, slice], work: np.ndarray) -> _Cap | None:
    """``cap`` cut to ``box`` and, within it, to where the cap is finite,
    bound to those cells of ``work``, the box's drift scratch."""
    cut = cap[box]
    finite = _bounding_box(np.isfinite(cut))
    return None if finite is None else _Cap(work[finite], cut[finite])


def _upwind(f: np.ndarray, fwd: np.ndarray, bwd: np.ndarray, out: np.ndarray,
            up: np.ndarray | None = None) -> np.ndarray:
    """The upwind term f * D into ``out``: D is the forward difference
    where f > 0 (``up``, when the caller has it) and the backward one
    elsewhere."""
    np.copyto(out, bwd)
    np.copyto(out, fwd, where=f > 0 if up is None else up)
    out *= f
    return out


def _drift(h: float, power: np.ndarray, floor: _Cap | None, top: _Cap | None) -> np.ndarray:
    """dx/dt of one load, in place of its ``power``: h minus the power
    capped at h on the floor, with its heating capped at 0 at the active
    top.  Each cap holds only the cells of ``power`` where it is finite,
    since a minimum with inf is the identity."""
    if floor is not None:
        np.minimum(floor.cells, floor.value, out=floor.cells)
    f = np.subtract(h, power, out=power)
    if top is not None:
        np.minimum(top.cells, top.value, out=top.cells)
    return f


def _wind_split(budget, need: np.ndarray, order) -> np.ndarray:
    """The wind budget given to the loads in ``order``, each up to its
    ``need`` (loads along the first axis), until none is left."""
    split = np.empty_like(need)
    remaining = budget
    for i in order:
        split[i] = np.minimum(remaining, need[i])
        remaining = remaining - split[i]
    return split


def _candidate_table(env: MarkovEnvironment, params: LoadParams, x: np.ndarray,
                     w_pow: float, m_pow: float, ws: _Workspace) -> list[list[_WindOrder]]:
    """The wind orders of every environment state, in the order the
    backward step scores them, bound to the views of ``ws`` they use."""
    h, c = params.h, params.c
    cap = h + c                                   # per-load total power cap
    temps = np.stack(np.meshgrid(x, x, indexing="ij"))     # (2, nx, nx): x1, x2
    at_floor = temps <= 1e-12
    floor_cap = np.where(at_floor, h, np.inf)
    need = np.where(at_floor, h, cap)
    share = params.wind_cooling_rates(env.n_wind) / c    # of the full-wind budget
    terms = tuple(ws.terms)
    table = []
    for e in range(env.n_states):
        iw, jc = env.split_index(e)
        theta = params.comfort_levels[jc]
        forced = temps > theta + 1e-12
        # mandatory holding power at the active top (f <= 0 there)
        holding = np.isclose(temps, theta) & ~forced
        top_cap = np.where(holding, 0.0, np.inf)
        fwd, bwd = tuple(d[e] for d in ws.fwd), tuple(d[e] for d in ws.bwd)
        best = ws.ham[e]
        chosen = (ws.wind[e, :, :, 0], ws.wind[e, :, :, 1],
                  ws.grid[e, :, :, 0], ws.grid[e, :, :, 1])
        orders = []
        for order in ([(0, 1), (1, 0)] if iw >= 1 else [(0, 1)]):
            # wind off has a budget of 0, so each load gets 0
            pw = _wind_split(w_pow * share[iw], need, order)
            g_base = np.where(forced, np.clip(m_pow - pw, 0.0, None),
                              np.where(holding, np.clip(h - pw, 0.0, None), 0.0))
            g = g_base + 0.0                      # plus zero extra: -0.0 becomes 0.0
            f = np.minimum(h - np.minimum(pw + g, floor_cap), top_cap)
            room = np.where(forced, 0.0, np.clip(cap - pw - g_base, 0.0, None))
            room = np.where(at_floor, np.clip(h - pw - g_base, 0.0, None), room)
            g_total = g_base[0] + g_base[1]
            extras = []
            for li in (0, 1):
                # outside the box the extra is 0, so the candidate is a copy
                # of the one with no extra grid power, and a copy never wins
                box = _bounding_box(room[li] > 0)
                if box is None:
                    continue
                work, own_grid, own_term, cand = ws.boxes(room[li][box].shape)
                ex_terms = [t[box] for t in terms]
                ex_terms[li] = own_term
                ex_grid = [gi[box] for gi in g]
                ex_grid[li] = own_grid
                extras.append(_Extra(
                    load=li, room=room[li][box], floor=_cap_in(floor_cap[li], box, work),
                    top=_cap_in(top_cap[li], box, work), base=g[li][box],
                    base_total=g_total[box], fwd=fwd[li][box],
                    bwd=bwd[li][box], work=work, terms=tuple(ex_terms), cand=cand,
                    best=best[box], powers=(pw[0][box], pw[1][box], *ex_grid),
                    chosen=tuple(arr[box] for arr in chosen)))
            orders.append(_WindOrder(
                upwind=tuple(zip(f, fwd, bwd, terms, f > 0)), power_sq=(g[0] + g[1]) ** 2,
                terms=terms, cand=ws.cand if orders else best, best=best,
                powers=(*pw, *g), chosen=chosen, extras=tuple(extras)))
        table.append(orders)
    return table


class _Workspace:
    """The scratch arrays of one solve, written by every backward step, and
    the policy arrays, written by the last."""

    def __init__(self, n_env: int, nx: int):
        # one-sided differences, inward at the edges: along axis 1 the
        # forward and backward differences are two views of one padded
        # array; along axis 2 each is its own contiguous stack
        self.d1 = np.empty((n_env, nx + 1, nx))
        self.f2 = np.empty((n_env, nx, nx))
        self.b2 = np.empty((n_env, nx, nx))
        self.fwd = (self.d1[:, 1:, :], self.f2)   # per load
        self.bwd = (self.d1[:, :-1, :], self.b2)
        self.ham = np.empty((n_env, nx, nx))      # the cheapest Hamiltonian
        # a state with no coupling rate keeps its zero row
        self.coupling = np.zeros((n_env, nx, nx))
        self.terms = np.empty((2, nx, nx))        # upwind term per load, no extra grid power
        self.cand = np.empty((nx, nx))
        self.flat = np.empty((4, nx * nx))        # box-shaped scratch, contiguous
        self.wind = np.zeros((n_env, nx, nx, 2))
        self.grid = np.zeros((n_env, nx, nx, 2))

    def boxes(self, shape: tuple[int, int]) -> list[np.ndarray]:
        """Four scratch arrays of ``shape``."""
        n = shape[0] * shape[1]
        return [buf[:n].reshape(shape) for buf in self.flat]


def _one_sided_gradients(v: np.ndarray, dx: float, ws: _Workspace) -> None:
    """Forward/backward differences along each grid axis of the
    (n_env, nx, nx) stack into ``ws.fwd`` and ``ws.bwd``, one-sided
    inward at edges."""
    d1 = ws.d1
    np.subtract(v[:, 1:, :], v[:, :-1, :], out=d1[:, 1:-1, :])
    d1[:, 1:-1, :] /= dx
    d1[:, 0, :] = d1[:, 1, :]
    d1[:, -1, :] = d1[:, -2, :]
    # along axis 2 on the flat stack, so every pass is contiguous: the
    # differences that straddle two rows land in the edge columns, which
    # then take their inward neighbours
    flat_v, fwd, bwd = v.reshape(-1), ws.f2.reshape(-1), ws.b2.reshape(-1)
    np.subtract(flat_v[1:], flat_v[:-1], out=bwd[1:])
    bwd[1:] /= dx
    fwd[:-1] = bwd[1:]
    ws.b2[:, :, 0] = ws.b2[:, :, 1]
    ws.f2[:, :, -1] = ws.f2[:, :, -2]


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


def _score_extra(ex: _Extra, h: float, record: bool) -> None:
    """Score an extra-power candidate on its box and keep it where it is
    cheaper.  The extra changes only its own load's drift, so the other
    load's upwind term comes from the order's candidate with no extra grid
    power."""
    # the clipped half-gradient: half the load's backward difference
    extra = np.multiply(0.5, ex.bwd, out=ex.work)
    extra -= ex.base_total
    np.maximum(extra, 0.0, out=extra)
    np.minimum(extra, ex.room, out=extra)
    grid = np.add(ex.base, extra, out=ex.powers[2 + ex.load])
    f = _drift(h, np.add(ex.powers[ex.load], grid, out=ex.work), ex.floor, ex.top)
    _upwind(f, ex.fwd, ex.bwd, ex.terms[ex.load])
    cand = np.add(ex.powers[2], ex.powers[3], out=ex.cand)
    np.square(cand, out=cand)
    cand += ex.terms[0]
    cand += ex.terms[1]
    _keep_cheaper(ex.best, cand, ex.chosen if record else (), ex.powers)


def _backward_step(v: np.ndarray, table: list[list[_WindOrder]], rates: list[tuple],
                   dx: float, dt: float, h: float, ws: _Workspace,
                   record: bool) -> tuple[float, float] | None:
    """One explicit step from V(t + dt) to V(t), in place.  Each cell takes
    the first of its cheapest candidates; with ``record``, the winners'
    powers are written into the policy arrays of ``ws``, and the step
    returns the (min, max) over all cells of the rate, the Hamiltonian
    plus the coupling."""
    _one_sided_gradients(v, dx, ws)
    for orders in table:
        for k, order in enumerate(orders):
            for args in order.upwind:
                _upwind(*args)
            cand = np.add(order.power_sq, order.terms[0], out=order.cand)
            cand += order.terms[1]
            chosen = order.chosen if record else ()
            if k == 0:
                for arr, new in zip(chosen, order.powers):
                    arr[...] = new
            else:
                _keep_cheaper(order.best, cand, chosen, order.powers)
            for ex in order.extras:
                _score_extra(ex, h, record)
    # sum over e2 of q[e2, e] * (V[e2] - V[e]), over the rates that are not
    # zero: the others add a signed zero, which leaves the sum as it is.
    # Each state's first term is written straight into its row.
    diff = ws.cand                              # no candidate is scored from here on
    for row, v_e, terms in rates:
        for k, (v_e2, rate) in enumerate(terms):
            term = row if k == 0 else diff
            np.subtract(v_e2, v_e, out=term)
            term *= rate
            if k:
                row += term
    ham = ws.ham
    ham += ws.coupling
    bracket = (float(ham.min()), float(ham.max())) if record else None
    ham *= dt
    v += ham
    return bracket


def solve_hjb(env: MarkovEnvironment, params: LoadParams, horizon: float,
              grid_step: float, time_step: float | None = None,
              wind_power: float | None = None,
              forced_power: float | None = None) -> tuple[ValueGrid, AllocationPolicy]:
    """Backward induction on the two-load STV control problem.

    W = wind_power (h + c by default) is the wind budget at full wind; wind
    state i gets W * wind_cooling_rates(n_wind)[i] / c, its share in the
    model.  time_step defaults to 0.9 of the bound grid_step / (h + c + W).

    Raises ValueError unless params and env agree, horizon, grid_step and
    time_step are finite and positive, grid_step is at most the top comfort
    level, and wind_power and forced_power are finite and nonnegative; raises
    UnstableScheme unless time_step <= grid_step / (h + c + W).
    """
    params.check_environment(env)
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

    # the multiples of grid_step in [0, Theta_C]: a node that the candidate
    # table would count as above Theta_C lies outside the state space
    x = np.arange(0.0, params.theta_max + 0.5 * grid_step, grid_step)
    x = x[x <= params.theta_max + 1e-12]
    nx = len(x)
    ws = _Workspace(env.n_states, nx)
    table = _candidate_table(env, params, x, w_pow, m_pow, ws)
    n_steps = int(np.ceil(horizon / time_step))
    v = np.zeros((env.n_states, nx, nx))
    q = env.generator
    # per state: its coupling row, its values, and the values of each state
    # with a nonzero rate into it, with that rate
    rates = [(ws.coupling[e], v[e], [(v[e2], q[e2, e]) for e2 in range(env.n_states)
                                     if e2 != e and q[e2, e] != 0.0])
             for e in range(env.n_states)]
    for k in range(n_steps):
        bracket = _backward_step(v, table, rates, grid_step, time_step, h, ws,
                                 record=k == n_steps - 1)

    grid_obj = ValueGrid(x=x, values=v, horizon=n_steps * time_step,
                         time_step=time_step, rate_bracket=bracket)
    policy = AllocationPolicy(x=x, wind=ws.wind, grid=ws.grid,
                              wind_power=w_pow, forced_power=m_pow)
    return grid_obj, policy


def classify_policy(policy: AllocationPolicy, params: LoadParams) -> np.ndarray:
    """Label each cell synchronizing (-1), neutral (0) or desynchronizing (+1)
    by the sign of d|x1 - x2|/dt under the extracted policy, in every
    environment state at once."""
    x1, x2 = policy.x[:, None], policy.x[None, :]
    drift = params.h - (policy.wind + policy.grid)
    gap_drift = np.sign(x1 - x2) * (drift[..., 0] - drift[..., 1])
    return np.where(np.isclose(x1, x2), 0,
                    np.where(gap_drift > 1e-9, 1, np.where(gap_drift < -1e-9, -1, 0)))


def coolest_first_heuristic(x, wind: int, comfort: int, params: LoadParams,
                            activation_threshold: float,
                            wind_power: float | None = None, *,
                            n_wind: int) -> tuple[np.ndarray, np.ndarray]:
    """(wind power, grid power) per load: wind goes to the coolest load
    when the ensemble runs hot.

    wind_power (h + c by default) is the budget at full wind; wind state
    ``wind`` of an ``n_wind``-state chain gets its share
    wind_cooling_rates(n_wind)[wind] / c of it, as in solve_hjb.  With
    ample wind every load cools at full power.  When wind is scarce
    and the mean temperature exceeds the activation threshold, the entire
    wind budget goes to the coolest load still above the floor (hedging the
    next comfort down-switch); otherwise hottest-first.  Loads above the
    active comfort level always get forced cooling, grid-supplemented.
    """
    x = np.asarray(x, dtype=float)
    h, c = params.h, params.c
    theta = params.comfort_levels[comfort]
    share = params.wind_cooling_rates(n_wind)[wind] / c
    w_avail = (wind_power if wind_power is not None else h + c) * share
    need = np.where(x > 1e-12, h + c, h)

    if w_avail >= need.sum():
        wind_alloc = need
    elif w_avail > 0:
        hot = x.mean() > activation_threshold
        wind_alloc = _wind_split(w_avail, need, np.argsort(x if hot else -x, kind="stable"))
    else:
        wind_alloc = np.zeros(len(x))
    grid_alloc = np.where(x > theta + 1e-12,
                          np.clip(h + c - wind_alloc, 0.0, None), 0.0)
    return wind_alloc, grid_alloc
