"""Frozen copy of successive_refinement before every candidate was scored
through one evaluator: three copied scoring blocks, step and per-level
counters, and a probe pair that reset the finite-difference base at both
of its ends.  The tests compare the current successive_refinement against
it; it is not used by the package.
"""

from __future__ import annotations

import numpy as np

from zpolicy.heuristic import AdaptationTrace, PiecewiseDistribution, adapt_step


def successive_refinement(cost_fn, initial_level: int = 0, max_level: int = 3,
                          epsilon: float = 0.5, delta_j: float | None = None,
                          seed: int = 0, domain: tuple[float, float] = (0.0, 1.0),
                          shape: str = "constant", patience: int = 5,
                          max_steps_per_level: int = 60, exploration: float = 0.01,
                          ) -> tuple[PiecewiseDistribution, AdaptationTrace]:
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
            prev_alphas = dist.alphas.copy()
            prev_j = est.j_hat
        threshold = delta_j if delta_j is not None else 0.005 * abs(best_j)
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
