"""Model-free adaptive optimization of the threshold distribution.

The aggregator observes only the aggregate cost estimate of an episode
(total grid draw variability plus total discomfort), never individual
temperatures, and tunes a piecewise-constant or piecewise-linear
distribution by finite-difference descent with cyclic coordinate updates
and successive partition refinement: once a partition level plateaus,
every segment splits in two and the optimum so far seeds the finer level.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .distributions import ThresholdDistribution
from .model import LoadParams, MarkovEnvironment
from .simulate import SimulationConfig, simulate
from .variational import isotonic_fit

__all__ = [
    "PiecewiseDistribution",
    "AdaptationTrace",
    "CostEstimate",
    "estimate_cost",
    "make_simulation_cost_fn",
    "adapt_step",
    "successive_refinement",
]


@dataclass(frozen=True)
class PiecewiseDistribution:
    """2^level segments over the domain with nondecreasing values in [0, 1].

    shape "constant": the distribution equals alphas[i] on segment i.
    shape "linear": line segments joining the segment midpoints at levels
    alphas[i], pinned to 0 and 1 at the domain ends.
    """

    level: int
    alphas: np.ndarray
    domain: tuple[float, float]
    shape: str = "constant"

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", a)
        if len(a) != 2 ** self.level:
            raise ValueError(f"need {2 ** self.level} levels, got {len(a)}")
        if np.any(np.diff(a) < -1e-12) or a.min() < -1e-12 or a.max() > 1 + 1e-12:
            raise ValueError("levels must be nondecreasing within [0, 1]")
        if self.shape not in ("constant", "linear"):
            raise ValueError(f"unknown shape {self.shape!r}")

    @property
    def n_segments(self) -> int:
        return 2 ** self.level

    def segment_edges(self) -> np.ndarray:
        lo, hi = self.domain
        return np.linspace(lo, hi, self.n_segments + 1)

    def to_threshold_distribution(self) -> ThresholdDistribution:
        lo, hi = self.domain
        edges = self.segment_edges()
        if self.shape == "constant":
            return ThresholdDistribution.step_function(edges[:-1], self.alphas,
                                                       domain=(lo, hi))
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = np.concatenate([[lo], mids, [hi]])
        vs = np.concatenate([[0.0], self.alphas, [1.0]])
        return ThresholdDistribution.from_grid(xs, vs, domain=(lo, hi))

    def refine(self) -> "PiecewiseDistribution":
        """Split every segment in two, inheriting levels (warm start)."""
        return PiecewiseDistribution(level=self.level + 1,
                                     alphas=np.repeat(self.alphas, 2),
                                     domain=self.domain, shape=self.shape)

    def with_alphas(self, alphas: np.ndarray) -> "PiecewiseDistribution":
        return PiecewiseDistribution(level=self.level, alphas=alphas,
                                     domain=self.domain, shape=self.shape)


@dataclass(frozen=True)
class CostEstimate:
    j_hat: float
    std_error: float


@dataclass
class AdaptationTrace:
    steps: list = field(default_factory=list)       # (k, level, alphas, j_hat)
    refinements: list = field(default_factory=list)  # (k, new_level)

    def record(self, k: int, level: int, alphas: np.ndarray, j_hat: float):
        if not np.isfinite(j_hat):
            raise ValueError("cost estimate must be finite")
        self.steps.append((k, level, alphas.copy(), float(j_hat)))

    @property
    def best(self) -> tuple[int, float]:
        k_best = min(range(len(self.steps)), key=lambda i: self.steps[i][3])
        return k_best, self.steps[k_best][3]


def estimate_cost(dist: PiecewiseDistribution, episode: SimulationConfig,
                  env: MarkovEnvironment, params: LoadParams, gamma: float,
                  n_replications: int = 2) -> CostEstimate:
    """Episode cost of the distribution, from ensemble aggregates only.

    Each replication simulates quantile-sampled set-points and returns the
    time-averaged aggregate cost; no per-load temperature leaves the
    simulator (occupation and trace recording stay off).
    """
    u = dist.to_threshold_distribution()
    totals = []
    for rep in range(n_replications):
        cfg = SimulationConfig(
            n_loads=episode.n_loads,
            horizon_jumps=episode.horizon_jumps,
            seed=episode.seed + rep,
            distribution=u,
            record_occupation=False, record_trace=False,
            burn_in=episode.burn_in)
        totals.append(simulate(cfg, env, params, gamma).empirical_cost.total)
    se = float(np.std(totals, ddof=1) / np.sqrt(len(totals))) \
        if len(totals) > 1 else float("inf")
    return CostEstimate(j_hat=float(np.mean(totals)), std_error=se)


def make_simulation_cost_fn(env: MarkovEnvironment, params: LoadParams, gamma: float,
                            n_loads: int, horizon_jumps: int, seed: int,
                            n_replications: int = 1):
    """Episode evaluator with common random numbers: every candidate is
    scored on the same environment seeds, so cost differences between
    consecutive candidates reflect the distribution change alone."""
    episode = SimulationConfig(n_loads=n_loads, horizon_jumps=horizon_jumps, seed=seed)

    def cost_fn(dist: PiecewiseDistribution) -> CostEstimate:
        return estimate_cost(dist, episode, env, params, gamma,
                             n_replications=n_replications)

    return cost_fn


def _project_monotone(alphas: np.ndarray) -> np.ndarray:
    fit, _ = isotonic_fit(alphas, np.ones_like(alphas))
    return np.clip(fit, 0.0, 1.0)


def adapt_step(alphas: np.ndarray, prev_alphas: np.ndarray, j: float, j_prev: float,
               epsilon: float, coordinate: int, rng: np.random.Generator,
               stall_tol: float = 1e-6, exploration: float = 0.01) -> np.ndarray:
    """One finite-difference descent update of a single coordinate.

    The ratio update is undefined when the coordinate stalled; such steps
    get a fresh uniform exploration perturbation of magnitude
    ``exploration`` instead (it must exceed the 1/n_loads granularity of
    quantile-sampled episodes, or the next difference is exactly zero),
    and the result is projected back onto the monotone simplex.
    """
    if not (isinstance(epsilon, numbers.Real) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive number, got {epsilon!r}")
    new = np.asarray(alphas, dtype=float).copy()
    d = new[coordinate] - prev_alphas[coordinate]
    if abs(d) < stall_tol:
        # full-magnitude kick with a random sign; sub-magnitude draws would
        # vanish inside the quantile granularity and stall the recursion
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if new[coordinate] + sign * exploration > 1.0 or \
                new[coordinate] + sign * exploration < 0.0:
            sign = -sign
        new[coordinate] += sign * exploration
    else:
        new[coordinate] -= epsilon * (j - j_prev) / d
    return _project_monotone(new)


def successive_refinement(cost_fn, initial_level: int = 0, max_level: int = 3,
                          epsilon: float = 0.5, delta_j: float | None = None,
                          seed: int = 0, domain: tuple[float, float] = (0.0, 1.0),
                          shape: str = "constant", patience: int = 5,
                          max_steps_per_level: int = 60, exploration: float = 0.01,
                          ) -> tuple[PiecewiseDistribution, AdaptationTrace]:
    """Adapt, then split segments, until the refinement stops paying.

    Each level runs cyclic coordinate descent until ``patience`` consecutive
    steps improve by less than delta_j (default 0.5% of the running cost);
    the level optimum then seeds the doubled partition.  Refinement stops
    at max_level or when a whole level fails to beat its predecessor by
    delta_j.  Returns the best-seen distribution and the full trace.
    """
    rng = np.random.default_rng(seed)
    n0 = 2 ** initial_level
    dist = PiecewiseDistribution(level=initial_level,
                                 alphas=(np.arange(n0) + 0.5) / n0,
                                 domain=domain, shape=shape)
    trace = AdaptationTrace()
    k = 0
    est = cost_fn(dist)
    trace.record(k, dist.level, dist.alphas, est.j_hat)
    best_dist, best_j = dist, est.j_hat

    prev_alphas = dist.alphas.copy()
    prev_j = est.j_hat
    level_best_prev = np.inf

    while True:
        level_best = est.j_hat
        quiet = 0
        coord = 0
        steps_here = 0
        while steps_here < max_steps_per_level:
            threshold = delta_j if delta_j is not None else 0.005 * abs(est.j_hat)
            # probe this coordinate, then apply the attributable ratio update;
            # a strict one-step chain would always difference across
            # coordinates and never produce a usable ratio
            for _ in range(2):
                new_alphas = adapt_step(dist.alphas, prev_alphas, est.j_hat, prev_j,
                                        epsilon, coord, rng, exploration=exploration)
                prev_alphas, prev_j = dist.alphas.copy(), est.j_hat
                dist = dist.with_alphas(new_alphas)
                est = cost_fn(dist)
                k += 1
                steps_here += 1
                trace.record(k, dist.level, dist.alphas, est.j_hat)
                if est.j_hat < best_j:
                    best_dist, best_j = dist, est.j_hat
            if est.j_hat < level_best - threshold:
                level_best = est.j_hat
                quiet = 0
            else:
                quiet += 1
                if quiet >= patience:
                    break
            coord = (coord + 1) % dist.n_segments
            # restart each coordinate's recursion from its own probe
            prev_alphas = dist.alphas.copy()
            prev_j = est.j_hat
        threshold = delta_j if delta_j is not None else 0.005 * abs(best_j)
        # nan-safe: an infinite delta_j must stop after the first level
        if dist.level >= max_level or not (level_best < level_best_prev - threshold):
            break
        level_best_prev = level_best
        dist = best_dist.refine()
        prev_alphas = dist.alphas.copy()
        est = cost_fn(dist)
        k += 1
        trace.record(k, dist.level, dist.alphas, est.j_hat)
        trace.refinements.append((k, dist.level))
        if est.j_hat < best_j:
            best_dist, best_j = dist, est.j_hat
        prev_j = est.j_hat
    return best_dist, trace
