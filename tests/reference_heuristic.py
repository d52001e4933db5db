"""Frozen copies of two earlier forms of the heuristic, which the tests
compare the current one against; they are not used by the package.

- successive_refinement before every candidate was scored through one
  evaluator: three copied scoring blocks, step and per-level counters, and
  a probe pair that reset the finite-difference base at both of its ends.
- estimate_cost and make_simulation_cost_fn before an episode's
  environment path was sampled once and replayed: every candidate ran a
  whole simulate per replication, sampling the path of seed + r anew.  The
  simulate here is that simulate without its occupation and trace
  recording, which the episodes never turned on.
"""

from __future__ import annotations

import numpy as np

from zpolicy.costs import CostReport
from zpolicy.heuristic import (
    AdaptationTrace, CostEstimate, PiecewiseDistribution, adapt_step,
)
from zpolicy.model import flow_path, power_split
from zpolicy.simulate import SimulationConfig, sample_environment_path

_BLOCK = 4096


def _block_costs(x, zd, weight, theta, ci, dur, wind, h: float, c: float):
    target = np.where(wind == 0, np.minimum(zd, theta), theta)
    _, g0 = power_split(x, zd, theta, h, c, ci, wind)
    _, g1 = power_split(target, zd, theta, h, c, ci, wind)
    event = np.minimum(np.where(x > target, (x - target) / c, (target - x) / h), dur)
    order = np.argsort(event, axis=1)
    steps = np.take_along_axis((g1 - g0) * weight, order, axis=1)
    level = np.cumsum(np.concatenate([(g0 @ weight)[:, None], steps], axis=1), axis=1)
    width = np.diff(np.take_along_axis(event, order, axis=1), axis=1, prepend=0.0, append=dur)
    a = np.maximum(x - theta, 0.0)
    cooled = a - c * np.minimum(a / c, dur)
    return (float(np.sum(level * level * width)),
            float(np.sum((a * a * a - cooled * cooled * cooled) @ weight)) / (3.0 * c))


def simulate_cost(config, env, params, gamma: float) -> CostReport:
    rng = np.random.default_rng(config.seed)
    z = config.resolve_set_points(params)
    path = sample_environment_path(env, config.horizon_jumps, rng)
    zd, inv = np.unique(z, return_inverse=True)
    weight = np.bincount(inv).astype(float)
    h, c = params.h, params.c
    levels = np.asarray(params.comfort_levels)
    theta = levels[path.comfort]
    ci = params.wind_cooling_rates(env.n_wind)[path.wind]
    n_seg = len(path.start_times)
    first = int(np.searchsorted(path.start_times, config.burn_in * path.total_time))

    x = [float(config.initial_temperature)] * len(zd)
    int_g2 = int_disc = 0.0
    for s in range(0, n_seg, _BLOCK):
        segs = [a[s:s + _BLOCK].tolist() for a in (theta, ci, path.durations, path.wind)]
        runs = [flow_path(x0, zj, h, c, *segs) for x0, zj in zip(x, zd.tolist())]
        x = [run[-1] for run in runs]
        skip = max(first - s, 0)
        if skip >= len(segs[0]):
            continue
        xs = np.ascontiguousarray(np.array([run[skip:-1] for run in runs]).T)
        acc = slice(s + skip, s + len(segs[0]))
        cols = [a[acc, None] for a in (theta, ci, path.durations, path.wind)]
        g2, disc = _block_costs(xs, zd, weight, *cols, h, c)
        int_g2 += g2
        int_disc += disc

    t_acc = float(np.cumsum(path.durations[first:])[-1]) if first < n_seg else 0.0
    n = config.n_loads
    return CostReport(power_cost=int_g2 / max(t_acc, 1e-300) / n**2,
                      discomfort_cost=int_disc / max(t_acc, 1e-300) / n, gamma=gamma)


def estimate_cost(dist, episode, env, params, gamma: float,
                  n_replications: int = 2) -> CostEstimate:
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
        totals.append(simulate_cost(cfg, env, params, gamma).total)
    se = float(np.std(totals, ddof=1) / np.sqrt(len(totals))) \
        if len(totals) > 1 else float("inf")
    return CostEstimate(j_hat=float(np.mean(totals)), std_error=se)


def make_simulation_cost_fn(env, params, gamma: float, n_loads: int, horizon_jumps: int,
                            seed: int, n_replications: int = 1):
    episode = SimulationConfig(n_loads=n_loads, horizon_jumps=horizon_jumps, seed=seed)

    def cost_fn(dist):
        return estimate_cost(dist, episode, env, params, gamma,
                             n_replications=n_replications)

    return cost_fn


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
