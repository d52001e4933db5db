"""Stationary distribution of a single load under a threshold policy.

The load temperature together with the discrete environment state is a
piecewise-deterministic Markov process.  Off the parking points its
stationary state densities p(x) (one per environment state) satisfy the
linear ODE system

    D(x) dp/dx = Q p(x),

with D(x) the diagonal drift matrix, plus point masses at the floor x=0
(one per wind-on state and comfort level), at every comfort level below
the set-point (wind off, that comfort level active) and at the set-point
itself (wind off, comfort levels at or above it).  Each mass is tied to a
unique environment state, and balances the flux jump of the densities:

    Q[:, s] * mass_s  =  D(x+) p(x+) - D(x-) p(x-)

at its location (one-sided at 0 and at the set-point).  Together with
normalization this yields a single global linear system; the conservation
law 1^T D(x) p(x) = 0 makes exactly one of its equations redundant.

D is constant and invertible on each open interval between breakpoints,
and its pattern on the k-th comfort interval does not depend on the
set-point, so one eigendecomposition D^-1 Q = V diag(lam) V^-1 per
interval serves every z.  On an interval [lo, hi] the densities are

    p(x) = V diag(e^{lam (x - lo)} for lam <= 0, e^{lam (x - hi)} for lam > 0) a,

the spectral solution of Markov-modulated fluid queues (Anick, Mitra &
Sondhi 1982; Mitra 1988): decaying modes are anchored at the left end and
growing modes at the right end, so every exponential is at most 1 and the
system stays well conditioned however fast the environment switches.  The
unknowns are the mode coefficients a of each interval and the point
masses; there is no shooting or ODE stepping.

Set-points with the same number n of comfort levels below them share the
structure of the system, and n alone places every mass; only the length of
the last interval changes.  ``_solve`` checks the inputs and solves each
such group as one stacked system with a batched SVD, for both
``point_mass_curves`` and ``solve_stationary`` (a batch of one, plus the
density grid).  Tails, the discomfort integral and the CDF are
closed-form integrals of (polynomial of degree <= 2) x exponential, from
``_modes``: over whole intervals, or up to a point inside one.  The grid
step shapes only the sampled density grid, which ``distribution`` writes
and the negativity and conservation checks read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .model import LoadParams, MarkovEnvironment

__all__ = [
    "StationaryDistribution",
    "Segment",
    "solve_stationary",
    "verify_conservation",
    "point_mass_curves",
    "PointMassCurves",
]

_NEG_DENSITY_TOL = 1e-10
# j_n(u) = int_0^1 s^n e^{-us} ds = sum_k (-u)^k / (k! (n + k + 1)) for n = 0, 1, 2;
# the series is used for |u| < 1, where the closed forms cancel
_SERIES = np.array([[(-1.0) ** k / (math.factorial(k) * (n + k + 1)) for n in range(3)]
                    for k in range(20)])
# (j0, j1, j2) -> moments of (1 - s)^n: the same integrals for a growing mode
_REVERSE = np.array([[1.0, 1.0, 1.0], [0.0, -1.0, -2.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Segment:
    """Densities on one open interval between breakpoints: sampled on a
    grid for output and checks, and as the anchored modes of the module
    docstring, which every reader of their mass integrates."""

    x: np.ndarray              # grid including both endpoints
    densities: np.ndarray      # shape (n_states, len(x))
    drift: np.ndarray          # diagonal of D on this interval, shape (n_states,)
    integral: np.ndarray       # exact per-state integral over the interval
    lam: np.ndarray            # (n_sup,) eigenvalues of D^-1 Q
    vec: np.ndarray            # (n_sup, n_sup) eigenvectors V on the support
    coef: np.ndarray           # (n_sup,) mode coefficients a
    support: np.ndarray        # states the chain visits, the rows of V


def _mass_below(seg: Segment, x: np.ndarray) -> np.ndarray:
    """Each state's exact density mass on [lo, min(x, hi)]: shape
    (n_states, len(x)).  ``_modes`` anchors a growing mode at t = x - lo,
    the segment at its length L, hence the factor e^{lam (t - L)}."""
    length = seg.x[-1] - seg.x[0]
    t = np.clip(x - seg.x[0], 0.0, length)[:, None]
    _, _, mom = _modes(seg.lam, t)
    weight = mom[..., 0] * np.exp(np.where(seg.lam.real > 0, seg.lam * (t - length), 0.0))
    out = np.zeros((len(seg.drift), len(x)))
    out[seg.support] = (seg.vec @ (seg.coef * weight).T).real
    return out


@dataclass(frozen=True)
class StationaryDistribution:
    z: float
    env: MarkovEnvironment
    params: LoadParams
    segments: tuple[Segment, ...]
    point_masses: dict            # (location, state_index) -> mass
    system_shape: tuple[int, int]  # (n_equations, n_unknowns) of the assembled system
    system_rank: int

    @property
    def densities(self) -> np.ndarray:
        if not self.segments:
            return np.zeros((self.env.n_states, 1))
        return np.concatenate([s.densities for s in self.segments], axis=1)

    def density_mass(self) -> float:
        return sum(float(s.integral.sum()) for s in self.segments)

    def total_mass(self) -> float:
        return self.density_mass() + sum(self.point_masses.values())

    def mass_at(self, location: float, state: int | None = None) -> float:
        """Point mass at exactly ``location`` (of one state, or of all)."""
        return float(sum(m for (loc, s), m in self.point_masses.items()
                         if loc == location and (state is None or s == state)))

    def mass_locations(self) -> list[float]:
        """Sorted locations that hold a positive point mass."""
        return sorted({loc for (loc, _s), m in self.point_masses.items() if m > 0})

    def cdf(self, x):
        """P(X <= x) mixing densities and point masses (right-continuous).
        A scalar ``x`` gives a float, an array gives an array."""
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        out = sum((_mass_below(seg, xq).sum(axis=0) for seg in self.segments),
                  np.zeros_like(xq))
        for (loc, _s), m in self.point_masses.items():
            out += np.where(xq >= loc, m, 0.0)
        return out if np.ndim(x) else float(out[0])

    def tail_above(self, theta: float, states=None) -> float:
        """Density mass strictly above ``theta`` for the given states."""
        rows = slice(None) if states is None else list(states)
        at = np.array([float(theta)])
        return sum((float(seg.integral[rows].sum() - _mass_below(seg, at)[rows].sum())
                    for seg in self.segments), 0.0)


def _drift_diagonals(env: MarkovEnvironment, params: LoadParams) -> np.ndarray:
    """Diagonal of D(x) on each comfort interval (Theta_k, Theta_{k+1}), the
    first one starting at 0: shape (n_intervals, n_states)."""
    wind, comfort = np.divmod(np.arange(env.n_states), env.n_comfort)
    k = np.arange(len(params.comfort_levels))[:, None]
    return np.where(comfort < k, -params.c,          # forced cooling above the active level
                    np.where(wind == 0, params.h, -params.wind_cooling_rates(env.n_wind)[wind]))


def _modes(lam: np.ndarray, length: np.ndarray):
    """Each anchored mode (e^{lam t} decaying, e^{lam (t - L)} growing, t the
    offset from the interval's left end) at t = 0, at t = L, and its
    integrals of t^n over [0, L] for n = 0, 1, 2.  ``lam`` has shape
    (..., n_sup) and ``length`` (..., 1); the ends have their broadcast
    shape, the moments that shape plus a last axis of 3."""
    grow = lam.real > 0
    lam_l = lam * length
    left = np.exp(np.where(grow, -lam_l, 0.0))
    right = np.exp(np.where(grow, 0.0, lam_l))
    u = np.where(grow, lam_l, -lam_l)
    small = np.abs(u) < 1.0
    us = np.where(small, u, 0.0)
    ul = np.where(small, 1.0, u)
    e = np.exp(-ul)
    j0 = (1.0 - e) / ul
    j1 = (j0 - e) / ul
    j = np.where(small[..., None], (us[..., None] ** np.arange(len(_SERIES))) @ _SERIES,
                 np.stack([j0, j1, (2.0 * j1 - e) / ul], axis=-1))
    j = np.where(grow[..., None], j @ _REVERSE, j)
    return left, right, j * length[..., None] ** np.arange(1, 4)


@dataclass(frozen=True)
class _Model:
    """What every set-point of one (environment, load) pair shares: the
    eigenbasis of D^-1 Q on each of the K comfort intervals, restricted to
    the support of the environment chain."""

    env: MarkovEnvironment
    params: LoadParams
    support: np.ndarray
    mass_states: np.ndarray  # floor (wind-on) states, then parking (wind-off) states
    mass_q: np.ndarray       # (n_sup, n_masses): column Q[:, s] of each mass
    lows: np.ndarray         # (K,) left end of each interval
    lengths: np.ndarray      # (K,) its length up to the next comfort level
    drift: np.ndarray        # (K, n_states) diagonal of D, every state
    lam: np.ndarray          # (K, n_sup) eigenvalues
    vec: np.ndarray          # (K, n_sup, n_sup) eigenvectors V, one per column
    dvec: np.ndarray         # (K, n_sup, n_sup) D V
    by_comfort: np.ndarray   # (K, n_comfort, n_sup) rows of V summed per comfort level


def _build_model(env: MarkovEnvironment, params: LoadParams) -> _Model:
    # environment states the chain never visits (e.g. a stuck wind state)
    # are left out: the support is closed under Q, so the solve is
    # restricted to it and reports zeros elsewhere
    support = np.nonzero(env.stationary() > 1e-13)[0]
    q_sup = env.generator[np.ix_(support, support)]
    wind, comfort = np.divmod(support, env.n_comfort)
    order = np.argsort(wind == 0, kind="stable")
    levels = np.array(params.comfort_levels)
    lows = np.concatenate([[0.0], levels[:-1]])
    drift = _drift_diagonals(env, params)
    d_sup = drift[:, support, None]
    lam, vec = np.linalg.eig(q_sup / d_sup)
    return _Model(env=env, params=params, support=support, mass_states=support[order],
                  mass_q=q_sup[:, order], lows=lows, lengths=levels - lows, drift=drift,
                  lam=lam, vec=vec, dvec=d_sup * vec,
                  by_comfort=(comfort == np.arange(env.n_comfort)[:, None]) @ vec)


@dataclass(frozen=True)
class _Solution:
    """Stationary laws of a batch of B set-points with the same comfort
    levels below them, renormalized; K intervals of n_sup modes."""

    coef: np.ndarray         # (B, K, n_sup) mode coefficients
    moments: np.ndarray      # (B, K, n_sup, 3) from _modes
    integrals: np.ndarray    # (B, K, n_states) density mass per interval and state
    masses: np.ndarray       # (B, n_masses), in the order of _Model.mass_states
    grids: list              # per interval, (..., n_pts) local solver grid
    densities: list          # per interval, (B, n_sup, n_pts) on the solver grid,
                             # before the renormalization by ``scale``
    scale: np.ndarray        # (B,)
    rank: np.ndarray         # (B,)
    shape: tuple             # (n_equations, n_unknowns)


def _fail(z: np.ndarray, bad: np.ndarray, message) -> None:
    """Raise SingularSystem for the first set-point flagged in ``bad``."""
    if bad.any():
        b = int(np.argmax(bad))
        raise SingularSystem(f"z={z[b]}: {message(b)}")


def _solve_batch(model: _Model, z: np.ndarray, grid_step: float) -> _Solution:
    """Solve the set-points ``z`` (all > 0, same number of comfort levels
    below) as one stacked system.

    Raises SingularSystem for the first z whose system loses rank beyond
    the conservation redundancy, is inconsistent, or gives a negative mass,
    a negative density on the solver grid, or a total mass far from 1.
    """
    env = model.env
    n_int = int(np.searchsorted(model.params.comfort_levels, z[0])) + 1
    lam, vec, dvec = model.lam[:n_int], model.vec[:n_int], model.dvec[:n_int]
    n_sup, n_b, n_m = len(model.support), len(z), len(model.mass_states)
    n_unknowns = n_int * n_sup + n_m
    a = np.zeros((n_b, (n_int + 1) * n_sup + 1, n_unknowns), dtype=vec.dtype)

    # the last interval ends at the set-point, the others at the next level
    lengths = np.repeat(model.lengths[None, :n_int, None], n_b, axis=0)
    lengths[:, -1, 0] = z - model.lows[n_int - 1]
    left, right, mom = _modes(lam, lengths)
    for k in range(n_int):
        cols = slice(k * n_sup, (k + 1) * n_sup)
        # flux jumps D(b+) p(b+) - D(b-) p(b-) at the interval's two ends
        a[:, cols, cols] = -dvec[k] * left[:, k, None, :]
        a[:, (k + 1) * n_sup:(k + 2) * n_sup, cols] = dvec[k] * right[:, k, None, :]
    a[:, -1, :n_int * n_sup] = (model.by_comfort[:n_int].sum(axis=1) * mom[..., 0]).reshape(n_b, -1)
    # floor masses balance the flux at 0; parking masses at Theta_j, or at
    # the set-point once it binds first
    wind, comfort = np.divmod(model.mass_states, env.n_comfort)
    block = np.where(wind > 0, 0, np.minimum(comfort + 1, n_int))
    a[:, block[:, None] * n_sup + np.arange(n_sup),
      n_int * n_sup + np.arange(n_m)[:, None]] = model.mass_q.T
    a[:, -1, n_int * n_sup:] = 1.0

    # the rank rule of least squares (rcond = eps max(m, n))
    sv = np.linalg.svd(a, compute_uv=False)
    rank = np.sum(sv > sv[:, :1] * np.finfo(float).eps * max(a.shape[1:]), axis=1)
    _fail(z, rank < n_unknowns,
          lambda b: f"rank {rank[b]} < {n_unknowns} unknowns (system {a.shape[1:]})")
    # the flux rows sum to zero (1^T Q = 0, 1^T D v = 0 for every mode with
    # lam != 0, and a mode with lam = 0 is the same at both ends), so
    # without the first one the system is square
    rhs = np.zeros((n_b, n_unknowns, 1))
    rhs[:, -1] = 1.0
    x = np.linalg.solve(a[:, 1:], rhs)[..., 0]
    resid = (a @ x[..., None])[..., 0]
    resid[:, -1] -= 1.0
    residual = np.abs(resid).max(axis=1)
    _fail(z, residual > 1e-7,
          lambda b: f"inconsistent stationary system, residual {residual[b]:.2e}")

    masses = x[:, n_int * n_sup:].real
    _fail(z, masses.min(axis=1) < -_NEG_DENSITY_TOL,
          lambda b: f"negative point mass {masses[b].min():.2e}")
    masses = np.maximum(masses, 0.0)
    coef = x[:, :n_int * n_sup].reshape(n_b, n_int, n_sup)

    integrals = np.zeros((n_b, n_int, env.n_states))
    integrals[..., model.support] = (vec @ (mom[..., 0] * coef)[..., None])[..., 0].real
    grids, densities = [], []
    for k in range(n_int):
        # the solver grid: linspace(0, L, n_pts) for each set-point, padded
        # with L; one grid for every z but on the last interval
        length = lengths[:, k] if k == n_int - 1 else model.lengths[k:k + 1]
        n_pts = np.maximum(np.ceil(length / grid_step).astype(int) + 1, 2)
        p = np.arange(n_pts.max())
        t = np.where(p >= n_pts - 1, length, p * (length / (n_pts - 1)))
        shift = t[..., None, :] - np.where(lam[k].real > 0, length, 0.0)[..., :, None]
        dens = ((vec[k] * coef[:, k, None, :]) @ np.exp(lam[k][:, None] * shift)).real
        lo, hi = model.lows[k], model.lows[k] + lengths[:, k, 0]
        _fail(z, dens.min(axis=(1, 2)) < -_NEG_DENSITY_TOL,
              lambda b: f"negative density {dens[b].min():.2e} on interval [{lo}, {hi[b]}]")
        grids.append(t)
        densities.append(dens)

    total = masses.sum(axis=1) + integrals.sum(axis=(1, 2))
    _fail(z, np.abs(total - 1.0) > 1e-6, lambda b: f"total mass {total[b]} far from 1")
    # round-off from the clamps above is renormalized away
    scale = np.where(np.abs(total - 1.0) > 1e-12, 1.0 / total, 1.0)
    return _Solution(
        coef=coef * scale[:, None, None], moments=mom,
        integrals=integrals * scale[:, None, None], masses=masses * scale[:, None],
        grids=grids, densities=densities, scale=scale, rank=rank, shape=a.shape[1:])


def _grid_step(params: LoadParams, grid_step: float | None) -> float:
    """Theta_C/400 unless given; a given step must be finite and positive."""
    if grid_step is not None and not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step}")
    return params.theta_max / 400.0 if grid_step is None else grid_step


def _solve(env: MarkovEnvironment, params: LoadParams, z: np.ndarray,
           grid_step: float | None):
    """The checks of ``solve_stationary``, the model, and (n, slice of z,
    _Solution) per count n of comfort levels below the ascending set-points
    z > 0."""
    params.check_environment(env)
    params.check_set_points(z)
    grid_step = _grid_step(params, grid_step)
    model = _build_model(env, params)
    # z ascends, so the set-points in (Theta_n, Theta_{n+1}] (Theta_0 = 0)
    # are one slice of it
    ends = np.searchsorted(z, [0.0, *params.comfort_levels], side="right").tolist()
    return model, [(n, slice(lo, hi), _solve_batch(model, z[lo:hi], grid_step))
                   for n, (lo, hi) in enumerate(zip(ends, ends[1:])) if hi > lo]


def solve_stationary(z: float, env: MarkovEnvironment, params: LoadParams,
                     grid_step: float | None = None) -> StationaryDistribution:
    """Solve the stationary density/mass system for set-point ``z``.

    ``grid_step`` spaces the sampled density grid only; the masses, the
    CDF and the tails are exact whatever it is.  Raises InvalidSetPoint for
    z outside [0, Theta_C], ValueError unless params and env agree and
    grid_step is None (Theta_C/400) or finite and positive, and
    SingularSystem if the assembled system loses rank beyond the single
    conservation redundancy or produces significantly negative densities.
    """
    model, batches = _solve(env, params, np.array([float(z)]), grid_step)
    n_states = env.n_states
    if not batches:
        # Degenerate policy: the load is pinned at the floor in every state.
        pi = env.stationary()
        masses = {(0.0, s): float(pi[s]) for s in range(n_states) if pi[s] > 0}
        return StationaryDistribution(z=z, env=env, params=params, segments=(),
                                      point_masses=masses,
                                      system_shape=(n_states + 1, n_states),
                                      system_rank=n_states)

    [(n, _, sol)] = batches
    segments = []
    for k, (t, dens_sup, integ) in enumerate(zip(sol.grids, sol.densities, sol.integrals[0])):
        dens = np.zeros((n_states, t.shape[-1]))
        dens[model.support] = np.clip(dens_sup[0], 0.0, None) * sol.scale[0]
        segments.append(Segment(x=model.lows[k] + t.reshape(-1), densities=dens,
                                drift=model.drift[k], integral=integ, lam=model.lam[k],
                                vec=model.vec[k], coef=sol.coef[0, k], support=model.support))
    masses = {}
    for s, m in zip(model.mass_states.tolist(), sol.masses[0].tolist()):
        wind, j = env.split_index(s)
        masses[(0.0 if wind else params.comfort_levels[j] if j < n else z, s)] = m
    return StationaryDistribution(z=z, env=env, params=params, segments=tuple(segments),
                                  point_masses=masses, system_shape=sol.shape,
                                  system_rank=int(sol.rank[0]))


def verify_conservation(dist: StationaryDistribution) -> float:
    """Max over the grid of |1^T D(x) p(x)| (exactly 0 for the true solution)."""
    worst = 0.0
    for seg in dist.segments:
        flux = seg.drift @ seg.densities
        worst = max(worst, float(np.max(np.abs(flux))))
    return worst


@dataclass(frozen=True)
class PointMassCurves:
    """Point-mass and occupation curves as functions of the set-point z.

    delta_z        : total mass parked exactly at the set-point
    delta_theta    : per comfort level j, mass parked at Theta_j (zero once
                     the set-point binds first, i.e. for z <= Theta_j)
    tail           : P(X > Theta_1), all states
    tail_wind_off  : P(X > active Theta, wind off) - the grid-(h+c) draw event
    tail_intermediate : per intermediate wind state i in 1..W-2, P(X above the
                     active comfort level in that wind state)
    phi            : discomfort integral E[((X - Theta_M)^+)^2]
    """

    z_grid: np.ndarray
    delta_z: np.ndarray
    delta_theta: np.ndarray       # shape (n_comfort, len(z_grid))
    tail: np.ndarray
    tail_wind_off: np.ndarray
    tail_intermediate: np.ndarray  # shape (max(n_wind-2, 0), len(z_grid))
    phi: np.ndarray
    env: MarkovEnvironment
    params: LoadParams

    @property
    def delta_z_plus_theta(self) -> np.ndarray:
        return self.delta_z + self.delta_theta.sum(axis=0)


def _phi(model: _Model, sol: _Solution) -> np.ndarray:
    """Discomfort integral sum_j int ((x - Theta_j)^+)^2 p_{.j}(x) dx: above
    Theta_j, x - Theta_j = t + (lo - Theta_j) with t the offset from lo."""
    levels = model.params.comfort_levels
    phi = np.zeros(len(sol.coef))
    for k in range(1, sol.coef.shape[1]):
        for j in range(k):
            delta = model.lows[k] - levels[j]
            weight = sol.moments[:, k] @ np.array([delta * delta, 2.0 * delta, 1.0])
            phi = phi + (model.by_comfort[k, j] * sol.coef[:, k] * weight).sum(axis=-1).real
    return phi


def point_mass_curves(env: MarkovEnvironment, params: LoadParams, z_grid,
                      grid_step: float | None = None,
                      workers: int = 1) -> PointMassCurves:
    """The stationary law at every set-point in ``z_grid``, as mass curves.

    Set-points with the same number of comfort levels below them are solved
    together as one stacked system, with every check of
    ``solve_stationary`` applied to each z.  ``workers`` is accepted for
    compatibility and has no effect.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.diff(z_grid) <= 0):
        raise ValueError("z_grid must be strictly ascending")
    model, batches = _solve(env, params, z_grid, grid_step)
    n_c, n_w, n_z = env.n_comfort, env.n_wind, len(z_grid)

    delta_z = np.zeros(n_z)
    delta_theta = np.zeros((n_c, n_z))
    tail = np.zeros(n_z)
    tail_wind = np.zeros((n_w, n_z))   # P(X above the active level), per wind state
    phi = np.zeros(n_z)
    # z = 0 pins the load at the floor: the wind-off mass is parked at z
    delta_z[z_grid == 0.0] = env.stationary()[:n_c].sum()

    for n, sel, sol in batches:
        # wind-off masses only: under wind the load is held at the floor
        for col, (wind, j) in enumerate(map(env.split_index, model.mass_states.tolist())):
            if not wind and j < n:
                delta_theta[j, sel] = sol.masses[:, col]
            elif not wind:
                delta_z[sel] += sol.masses[:, col]
        tail[sel] = sol.integrals[:, 1:].sum(axis=(1, 2))
        for j in range(n_c):
            states = [env.state_index(i, j) for i in range(n_w)]
            tail_wind[:, sel] += sol.integrals[:, j + 1:, states].sum(axis=1).T
        phi[sel] = _phi(model, sol)

    tail, tail_wind, phi = (np.maximum(v, 0.0) for v in (tail, tail_wind, phi))
    return PointMassCurves(
        z_grid=z_grid, delta_z=delta_z, delta_theta=delta_theta, tail=tail,
        tail_wind_off=tail_wind[0], tail_intermediate=tail_wind[1:n_w - 1],
        phi=phi, env=env, params=params,
    )
