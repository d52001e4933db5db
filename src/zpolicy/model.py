"""Domain model: joint wind/comfort Markov environment and single-load
threshold ("Z") policy dynamics.

A load heats at rate h while below its hold point and draws just enough
grid power to park there; whenever renewable power is available it cools
at the rate the wind state supports (i*c/(W-1) in wind state i, with
state W-1 supporting the full rate c); above the active comfort level
it is force-cooled at the maximum rate c regardless of wind, with grid
power topping up whatever the wind cannot supply.

The environment is the product of two independent finite Markov chains
(wind availability, active comfort level).  Its generator Q follows the
column convention: Q maps probability column vectors, off-diagonal
Q[k, l] is the rate l -> k, and every column sums to zero.

Temperature evolution between environment jumps is integrated exactly:
the drift is piecewise constant in x, so hit times at 0, the comfort
level and the hold point are closed-form and no Euler stepping is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSetPoint, NonPositiveRate

__all__ = [
    "MarkovEnvironment",
    "LoadParams",
    "LoadState",
    "PowerDraw",
    "build_environment",
    "z_policy_drift",
    "power_draw",
    "advance_temperatures",
    "step_ensemble",
]


def _birth_death_generator(rates) -> np.ndarray:
    """Generator (column convention) for a birth-death chain.

    ``rates`` is either a flat pair (q_up, q_down) for a 2-state chain or a
    sequence of (up_i, down_i) pairs, one per adjacent state pair.
    """
    arr = list(rates)
    if not arr:
        return np.zeros((1, 1))      # single-state chain
    if len(arr) == 2 and np.isscalar(arr[0]):
        pairs = [(float(arr[0]), float(arr[1]))]
    else:
        pairs = [(float(u), float(d)) for (u, d) in arr]
    n = len(pairs) + 1
    gen = np.zeros((n, n))
    for k, (up, down) in enumerate(pairs):
        if up <= 0.0 or down <= 0.0:
            raise NonPositiveRate(f"transition rates must be > 0, got {(up, down)}")
        gen[k + 1, k] += up      # k -> k+1
        gen[k, k] -= up
        gen[k, k + 1] += down    # k+1 -> k
        gen[k + 1, k + 1] -= down
    return gen


@dataclass(frozen=True)
class MarkovEnvironment:
    """Joint (wind, comfort-level) environment.

    States are ordered lexicographically as (wind i, comfort j), i.e. the
    flat index is ``i * n_comfort + j``; for the binary/binary case this is
    the ordering ij = 00, 01, 10, 11.
    """

    wind_generator: np.ndarray
    comfort_generator: np.ndarray
    generator: np.ndarray = field(init=False)

    def __post_init__(self):
        qw = np.asarray(self.wind_generator, dtype=float)
        qc = np.asarray(self.comfort_generator, dtype=float)
        object.__setattr__(self, "wind_generator", qw)
        object.__setattr__(self, "comfort_generator", qc)
        q = np.kron(qw, np.eye(qc.shape[0])) + np.kron(np.eye(qw.shape[0]), qc)
        object.__setattr__(self, "generator", q)

    @property
    def n_wind(self) -> int:
        return self.wind_generator.shape[0]

    @property
    def n_comfort(self) -> int:
        return self.comfort_generator.shape[0]

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def state_index(self, wind: int, comfort: int) -> int:
        return wind * self.n_comfort + comfort

    def split_index(self, state: int) -> tuple[int, int]:
        return divmod(state, self.n_comfort)

    def stationary(self) -> np.ndarray:
        """Stationary probability vector of the joint chain (Q pi = 0)."""
        q = self.generator
        n = q.shape[0]
        a = np.vstack([q, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def build_environment(wind_rates, comfort_rates) -> MarkovEnvironment:
    """Assemble the joint generator from per-chain transition rates.

    For the binary/binary case ``wind_rates=(q0, q1)`` gives mean holding
    times 1/q0 off and 1/q1 on, and ``comfort_rates=(r1, r2)`` gives mean
    holding times 1/r1 at the low level and 1/r2 at the high level.  Longer
    chains are specified as sequences of (up, down) rate pairs and form
    birth-death generators.

    Raises NonPositiveRate if any rate is <= 0.
    """
    env = MarkovEnvironment(
        wind_generator=_birth_death_generator(wind_rates),
        comfort_generator=_birth_death_generator(comfort_rates),
    )
    col_sums = env.generator.sum(axis=0)
    assert np.abs(col_sums).max() < 1e-12
    return env


@dataclass(frozen=True)
class LoadParams:
    """Physical load parameters.

    h : heating rate with no power applied (temperature/time)
    c : maximum net cooling rate (temperature/time)
    comfort_levels : ascending comfort thresholds Theta_1 < ... < Theta_C
    """

    h: float
    c: float
    comfort_levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "comfort_levels", tuple(float(t) for t in self.comfort_levels))
        if self.h <= 0 or self.c <= 0:
            raise ValueError("h and c must be positive")
        lv = self.comfort_levels
        if any(t < 0 for t in lv) or any(a >= b for a, b in zip(lv, lv[1:])):
            raise ValueError("comfort levels must be nonnegative and strictly increasing")

    @property
    def theta_max(self) -> float:
        return self.comfort_levels[-1]

    def check_set_points(self, z) -> None:
        """Raise InvalidSetPoint unless every set-point lies in [0, Theta_C]."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        bad = ~((z >= 0.0) & (z <= self.theta_max))
        if bad.any():
            raise InvalidSetPoint(f"z={z[bad][0]} outside [0, {self.theta_max}]")

    def wind_cooling_rates(self, n_wind: int) -> np.ndarray:
        """Net cooling rate per wind state: i*c/(W-1), so 0 when off and c at
        full wind.  A one-state wind chain has only the off state."""
        i = np.arange(n_wind, dtype=float)
        if n_wind == 1:
            return i
        return i * self.c / (n_wind - 1)


@dataclass(frozen=True)
class LoadState:
    temperature: float
    set_point: float


@dataclass(frozen=True)
class PowerDraw:
    wind_power: float
    grid_power: float


def z_policy_drift(state: LoadState, wind: int, comfort: int,
                   params: LoadParams, n_wind: int = 2) -> float:
    """Temperature rate dx/dt under the threshold policy.

    Above the active comfort level the load is force-cooled at -c no matter
    the wind state; under wind it cools at the wind-supported rate (held at
    the floor x=0); with wind off it heats at h until the hold point
    min(Z, Theta_M), parks there, and cools at -c back toward it if it ever
    finds itself above (only reachable from out-of-band initial states).
    """
    x, z = state.temperature, state.set_point
    theta = params.comfort_levels[comfort]
    if x > theta:
        return -params.c
    if wind >= 1:
        if x <= 0.0:
            return 0.0
        return -float(params.wind_cooling_rates(n_wind)[wind])
    park = min(z, theta)
    if x < park:
        return params.h
    if x > park:
        return -params.c
    return 0.0


def power_draw(state: LoadState, wind: int, comfort: int,
               params: LoadParams, n_wind: int = 2) -> PowerDraw:
    """Instantaneous (wind, grid) power for one load.

    Grid power is h+c during a comfort violation with wind off, the
    difference c - i*c/(W-1) when an intermediate wind state cannot supply
    the full forced-cooling rate, and h while parked at the hold point with
    wind off; all other situations draw no grid power.
    """
    h, c = params.h, params.c
    x, z = state.temperature, state.set_point
    theta = params.comfort_levels[comfort]
    if wind >= 1:
        ci = float(params.wind_cooling_rates(n_wind)[wind])
        if x > theta:
            # forced cooling at c; wind supplies h + ci, grid tops up
            return PowerDraw(wind_power=h + ci, grid_power=c - ci)
        if x <= 0.0:
            return PowerDraw(wind_power=h, grid_power=0.0)
        return PowerDraw(wind_power=h + ci, grid_power=0.0)
    park = min(z, theta)
    if x > park:
        return PowerDraw(wind_power=0.0, grid_power=h + c)
    if x == park:
        return PowerDraw(wind_power=0.0, grid_power=h)
    return PowerDraw(wind_power=0.0, grid_power=0.0)


def advance_temperatures(x: np.ndarray, z: np.ndarray, wind: int, comfort: int,
                         dt: float, params: LoadParams, n_wind: int = 2) -> np.ndarray:
    """Exact temperature update over a window with a constant environment.

    Vectorized over loads.  The drift is piecewise constant with at most one
    rate switch per load (crossing the comfort level downward), so the flow
    is closed-form; hold points are hit exactly via min/max, never overshot.
    """
    h, c = params.h, params.c
    theta = params.comfort_levels[comfort]
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if wind == 0:
        park = np.minimum(z, theta)
        heated = np.minimum(park, x + h * dt)
        cooled = np.maximum(park, x - c * dt)
        return np.where(x > park, cooled, np.where(x < park, heated, x))
    ci = float(params.wind_cooling_rates(n_wind)[wind])
    # above theta: cool at c until theta, then continue at ci down to the floor
    t_hit = np.where(x > theta, (x - theta) / c, 0.0)
    above = np.where(dt <= t_hit, x - c * dt,
                     np.maximum(0.0, theta - ci * np.maximum(dt - t_hit, 0.0)))
    below = np.maximum(0.0, x - ci * dt)
    return np.where(x > theta, above, below)


def step_ensemble(states: list[LoadState], wind: int, comfort: int, dt: float,
                  params: LoadParams, n_wind: int = 2) -> list[LoadState]:
    """Advance every load exactly over dt with the environment held fixed.

    The caller is responsible for splitting dt at environment jumps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.array([s.temperature for s in states])
    z = np.array([s.set_point for s in states])
    xn = advance_temperatures(x, z, wind, comfort, dt, params, n_wind=n_wind)
    return [LoadState(temperature=float(t), set_point=s.set_point)
            for t, s in zip(xn, states)]
