"""Model-free adaptive optimization of the threshold distribution.

The aggregator observes only the aggregate cost estimate of an episode
(total grid draw variability plus total discomfort), never individual
temperatures, and tunes a piecewise-constant or piecewise-linear
distribution by finite-difference descent with cyclic coordinate updates
and successive partition refinement: once a partition level plateaus,
every segment splits in two and the optimum so far seeds the finer level.
"""

from __future__ import annotations

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

    Raises ValueError unless the domain is two finite numbers, low < high.

    shape "constant": the distribution equals alphas[i] on segment i.
    shape "linear": line segments joining the segment midpoints at levels
    alphas[i], pinned to 0 and 1 at the domain ends.
    """

    level: int
    alphas: np.ndarray
    domain: tuple[float, float]
    shape: str = "constant"

    def __post_init__(self):
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be finite with low < high, got {self.domain}")
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
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
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

    Each level runs cyclic coordinate descent in probe pairs, one coordinate
    per pair.  A pair starts from a stalled difference, so its first
    adapt_step is an exploration kick; its second is the ratio update
    across that kick, whose cost change the coordinate alone caused.  A
    level ends after max_steps_per_level steps (rounded up to whole pairs),
    or once ``patience`` consecutive pairs end less than delta_j (default
    0.5% of the current cost) below the level's best.  Refinement: unless
    the level is max_level, or its best fails to beat the previous level's
    by delta_j (default 0.5% of the best so far), the best distribution
    seen so far is split in two and seeds the next level.  Every cost_fn
    call is one trace step.  Returns the best-seen distribution and the
    full trace.
    """
    rng = np.random.default_rng(seed)
    trace = AdaptationTrace()
    best_dist, best_j = None, np.inf

    def evaluate(dist: PiecewiseDistribution) -> float:
        nonlocal best_dist, best_j
        j = cost_fn(dist).j_hat
        trace.record(len(trace.steps), dist.level, dist.alphas, j)
        if j < best_j:
            best_dist, best_j = dist, j
        return j

    n0 = 2 ** initial_level
    dist = PiecewiseDistribution(level=initial_level, alphas=(np.arange(n0) + 0.5) / n0,
                                 domain=domain, shape=shape)
    j = evaluate(dist)
    level_best_prev = np.inf
    while True:
        level_best = j
        quiet = 0
        coord = 0
        for _ in range(0, max_steps_per_level, 2):
            threshold = delta_j if delta_j is not None else 0.005 * abs(j)
            prev_alphas, prev_j = dist.alphas, j
            for _ in range(2):
                new_alphas = adapt_step(dist.alphas, prev_alphas, j, prev_j,
                                        epsilon, coord, rng, exploration=exploration)
                prev_alphas, prev_j = dist.alphas, j
                dist = dist.with_alphas(new_alphas)
                j = evaluate(dist)
            if j < level_best - threshold:
                level_best = j
                quiet = 0
            else:
                quiet += 1
                if quiet >= patience:
                    break
            coord = (coord + 1) % dist.n_segments
        threshold = delta_j if delta_j is not None else 0.005 * abs(best_j)
        # nan-safe: an infinite delta_j must stop after the first level
        if dist.level >= max_level or not (level_best < level_best_prev - threshold):
            break
        level_best_prev = level_best
        dist = best_dist.refine()
        j = evaluate(dist)
        trace.refinements.append((len(trace.steps) - 1, dist.level))
    return best_dist, trace
