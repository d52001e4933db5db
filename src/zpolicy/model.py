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
The flow (exact_flow) and the power classification (power_split) are
elementwise kernels in which every argument broadcasts, the environment
state included; the perfect sampler, the simulator's accounting and the
CLI all call them, and advance_temperatures is exact_flow for one
environment state given by its indices.  flow_path is the same flow as a
scalar recursion along a whole path of segments, for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSetPoint, NonPositiveRate

__all__ = [
    "MarkovEnvironment",
    "LoadParams",
    "build_environment",
    "advance_temperatures",
    "flow_path",
]


def _birth_death_generator(rates) -> np.ndarray:
    """Generator (column convention) for a birth-death chain.

    ``rates`` is either a flat pair (q_up, q_down) for a 2-state chain or a
    sequence of (up_i, down_i) pairs, one per adjacent state pair.
    """
    arr = list(rates)
    if len(arr) == 2 and np.isscalar(arr[0]):
        pairs = [(float(arr[0]), float(arr[1]))]
    else:
        pairs = [(float(u), float(d)) for (u, d) in arr]
    if not pairs:
        return np.zeros((1, 1))      # single-state chain
    n = len(pairs) + 1
    gen = np.zeros((n, n))
    for k, (up, down) in enumerate(pairs):
        if not (up > 0.0 and down > 0.0):
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
        return stationary_law(self.generator)


def stationary_law(generator: np.ndarray) -> np.ndarray:
    """Stationary probability vector of one generator (column convention)."""
    n = generator.shape[0]
    a = np.vstack([generator, np.ones((1, n))])
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
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "comfort_levels", tuple(float(t) for t in self.comfort_levels))
        if not (0 < self.h < np.inf and 0 < self.c < np.inf):
            raise ValueError(f"h and c must be finite and positive, got {self.h} and {self.c}")
        lv = self.comfort_levels
        if not all(0 <= t < np.inf for t in lv) or any(a >= b for a, b in zip(lv, lv[1:])):
            raise ValueError("comfort levels must be finite, nonnegative and strictly increasing")

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


def exact_flow(x, z, theta, h, c, ci, dt, wind):
    """Exact temperature after dt in one environment state, elementwise.

    Every argument broadcasts, the duration and the wind state included,
    so one call can advance loads that sit in different segments.  The
    drift is piecewise constant with at most one rate switch per load
    (crossing the comfort level downward), so the flow is closed-form; hold
    points are hit exactly via min/max, never overshot.  A zero dt maps
    every state to itself.
    """
    cooled = x - c * dt
    # wind off: heat at h or cool at c to the hold point, and park there
    # (from the hold point itself, cooling is clipped back to it)
    park = np.minimum(z, theta)
    off = np.where(x < park, np.minimum(park, x + h * dt), np.maximum(park, cooled))
    # under wind: cool at c for the time t_hit it takes to reach theta (0
    # from at or below it), then at ci down to the floor
    t_hit = np.maximum((x - theta) / c, 0.0)
    on = np.where(dt <= t_hit, cooled, np.maximum(
        0.0, np.minimum(x, theta) - ci * np.maximum(dt - t_hit, 0.0)))
    return np.where(np.asarray(wind) == 0, off, on)


def flow_path(x: float, z: float, h: float, c: float,
              theta: list, ci: list, dt: list, wind: list) -> list[float]:
    """Temperatures of one load at the boundaries of consecutive environment
    segments: the entry temperature of each, then the exit of the last.

    theta, ci, dt and wind give each segment's comfort level, wind cooling
    rate, duration and wind state as Python numbers.  Each step is the
    scalar form of exact_flow, written with the comparisons np.minimum and
    np.maximum make, so the result is bitwise exact_flow's.
    """
    out = [x]
    for th, r, d, w in zip(theta, ci, dt, wind):
        if w == 0:
            park = z if z <= th else th
            if x > park:
                y = x - c * d
                x = park if park >= y else y
            elif x < park:
                y = x + h * d
                x = park if park <= y else y
        elif x > th:
            t_hit = (x - th) / c
            if d <= t_hit:
                x = x - c * d
            else:
                y = th - r * (d - t_hit)
                x = 0.0 if 0.0 >= y else y
        else:
            y = x - r * d
            x = 0.0 if 0.0 >= y else y
        out.append(x)
    return out


def power_split(x, z, theta, h, c, ci, wind):
    """(wind power, grid power) under the threshold policy, elementwise;
    every argument broadcasts, the wind state included.

    Grid power is h+c during a comfort violation with wind off, the
    difference c - ci when an intermediate wind state cannot supply the
    full forced-cooling rate, and h while parked at the hold point with
    wind off; all other situations draw no grid power.  Under wind, the
    wind supplies h + ci (h alone at the floor x = 0).
    """
    on = np.asarray(wind) >= 1
    wind_power = np.where(on, np.where(x <= 0.0, h, h + ci), 0.0)
    grid_on = np.where(x > theta, c - ci, 0.0)
    park = np.minimum(z, theta)
    grid_off = np.where(x > park, h + c, np.where(x == park, h, 0.0))
    return wind_power, np.where(on, grid_on, grid_off)


def advance_temperatures(x: np.ndarray, z: np.ndarray, wind: int, comfort: int,
                         dt: float, params: LoadParams, n_wind: int = 2) -> np.ndarray:
    """Exact temperature update over a window with a constant environment,
    vectorized over loads (see exact_flow)."""
    return exact_flow(np.asarray(x, dtype=float), np.asarray(z, dtype=float),
                      params.comfort_levels[comfort], params.h, params.c,
                      params.wind_cooling_rates(n_wind)[wind], dt, wind)
