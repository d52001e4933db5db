import numpy as np
import pytest

from zpolicy import (
    PiecewiseDistribution, SimulationConfig, ThresholdDistribution,
    adapt_step, continuum_cost, estimate_cost, euler_lagrange,
    make_simulation_cost_fn, project, simulate, successive_refinement,
)
from zpolicy.heuristic import CostEstimate

from conftest import GAMMA_REF


def test_piecewise_constant_evaluates_to_steps():
    dist = PiecewiseDistribution(level=1, alphas=np.array([0.3, 0.9]),
                                 domain=(0.0, 100.0))
    u = dist.to_threshold_distribution()
    assert float(u(10.0)) == 0.3
    assert float(u(60.0)) == 0.9
    assert float(u(100.0)) == 0.9


def test_piecewise_linear_joins_midpoints():
    dist = PiecewiseDistribution(level=1, alphas=np.array([0.3, 0.9]),
                                 domain=(0.0, 100.0), shape="linear")
    u = dist.to_threshold_distribution()
    assert float(u(25.0)) == pytest.approx(0.3)
    assert float(u(75.0)) == pytest.approx(0.9)
    assert float(u(50.0)) == pytest.approx(0.6)
    assert float(u(0.0)) == pytest.approx(0.0)


def test_refine_preserves_function():
    dist = PiecewiseDistribution(level=1, alphas=np.array([0.2, 0.7]),
                                 domain=(0.0, 100.0))
    fine = dist.refine()
    assert fine.level == 2
    zq = np.linspace(0.0, 100.0, 37)
    assert np.array_equal(dist.to_threshold_distribution()(zq),
                          fine.to_threshold_distribution()(zq))


def test_monotonicity_enforced():
    with pytest.raises(ValueError):
        PiecewiseDistribution(level=1, alphas=np.array([0.9, 0.3]),
                              domain=(0.0, 100.0))


def test_estimate_cost_zero_length_episode(ref_env, ref_params):
    dist = PiecewiseDistribution(level=0, alphas=np.array([1.0]),
                                 domain=(0.0, 100.0))
    # the episode config rejects the zero horizon itself
    with pytest.raises(ValueError):
        episode = SimulationConfig(n_loads=10, horizon_jumps=0, seed=0)
        estimate_cost(dist, episode, ref_env, ref_params, GAMMA_REF)


def test_estimate_cost_near_optimum(ref_env, ref_params, ref_curves):
    # the optimal distribution scored by episode simulation lands near its
    # analytic cost (the agreement tolerance covers both noise and the
    # dominance-formula bias)
    u_star = project(euler_lagrange(ref_curves, GAMMA_REF), ref_curves)
    j_star = continuum_cost(u_star, ref_curves, GAMMA_REF).total
    # represent u* in the piecewise-constant class on a fine partition
    level = 5
    edges = np.linspace(0.0, 100.0, 2 ** level + 1)
    alphas = np.asarray(u_star(edges[1:]))
    dist = PiecewiseDistribution(level=level, alphas=alphas, domain=(0.0, 100.0))
    episode = SimulationConfig(n_loads=100, horizon_jumps=60000, seed=23)
    est = estimate_cost(dist, episode, ref_env, ref_params, GAMMA_REF,
                        n_replications=2)
    assert np.isfinite(est.std_error)
    assert abs(est.j_hat - j_star) / j_star <= 0.08


def test_step_distribution_beats_unit_step_baseline(ref_env, ref_params):
    # full synchronization at the top comfort level is penalized
    episode = SimulationConfig(n_loads=60, horizon_jumps=30000, seed=11)
    top = PiecewiseDistribution(level=0, alphas=np.array([0.0]),
                                domain=(0.0, 100.0))   # step at Theta_2
    spread = PiecewiseDistribution(level=1, alphas=np.array([0.0, 1.0]),
                                   domain=(0.0, 100.0))  # step at Theta_1
    j_top = estimate_cost(top, episode, ref_env, ref_params, GAMMA_REF).j_hat
    j_spread = estimate_cost(spread, episode, ref_env, ref_params,
                             GAMMA_REF).j_hat
    assert j_spread < j_top


def test_adapt_step_zero_numerator_keeps_alphas():
    rng = np.random.default_rng(0)
    alphas = np.array([0.2, 0.6])
    prev = np.array([0.1, 0.6])
    out = adapt_step(alphas, prev, j=1.0, j_prev=1.0, epsilon=0.5,
                     coordinate=0, rng=rng)
    assert np.allclose(out, alphas)


def test_adapt_step_stall_gets_perturbation():
    rng = np.random.default_rng(0)
    alphas = np.array([0.2, 0.6])
    out = adapt_step(alphas, alphas.copy(), j=1.0, j_prev=0.9, epsilon=0.5,
                     coordinate=1, rng=rng, exploration=0.05)
    assert out[1] != 0.6
    assert abs(out[1] - 0.6) == pytest.approx(0.05, abs=1e-12)


def test_adapt_step_projects_monotone():
    rng = np.random.default_rng(0)
    alphas = np.array([0.5, 0.6])
    prev = np.array([0.5, 0.7])
    # large positive ratio pushes coordinate 1 below coordinate 0
    out = adapt_step(alphas, prev, j=2.0, j_prev=1.0, epsilon=1.0,
                     coordinate=1, rng=rng)
    assert np.all(np.diff(out) >= -1e-12)
    assert np.all((out >= 0) & (out <= 1))


def test_scalar_quadratic_descent_converges():
    target = 0.37

    def cost_fn(dist):
        return CostEstimate(float((dist.alphas[0] - target) ** 2), 0.0)

    best, trace = successive_refinement(cost_fn, initial_level=0, max_level=0,
                                        epsilon=0.4, seed=2,
                                        exploration=0.05,
                                        max_steps_per_level=120,
                                        delta_j=1e-10, patience=20)
    assert abs(best.alphas[0] - target) <= 0.05


def test_refinement_warm_start_and_stopping():
    # cost favors a two-segment shape; delta_j = inf stops after one level
    def cost_fn(dist):
        u = dist.to_threshold_distribution()
        zq = np.linspace(0.0, 1.0, 33)
        ideal = np.clip(2.0 * zq - 0.5, 0.0, 1.0)
        return CostEstimate(float(np.mean((np.asarray(u(zq)) - ideal) ** 2)), 0.0)

    best_inf, trace_inf = successive_refinement(cost_fn, initial_level=0,
                                                max_level=4, delta_j=np.inf,
                                                seed=0)
    assert best_inf.level == trace_inf.steps[0][1]   # never refined

    best, trace = successive_refinement(cost_fn, initial_level=0, max_level=3,
                                        epsilon=0.4, seed=0, exploration=0.05,
                                        patience=8, max_steps_per_level=60)
    assert best.level >= 1
    # best seen is nonincreasing across refinement levels
    per_level = {}
    for (_k, lv, _al, j) in trace.steps:
        per_level[lv] = min(per_level.get(lv, np.inf), j)
    levels = sorted(per_level)
    assert all(per_level[a] >= per_level[b] - 1e-12
               for a, b in zip(levels, levels[1:]))


def test_trace_rejects_nonfinite():
    from zpolicy.heuristic import AdaptationTrace
    tr = AdaptationTrace()
    with pytest.raises(ValueError):
        tr.record(0, 0, np.array([0.5]), float("nan"))


def test_privacy_replay_same_result(ref_env, ref_params):
    # the adaptation path is a function of the seed and the aggregate cost
    # sequence alone; per-load records are never consulted
    cost_fn = make_simulation_cost_fn(ref_env, ref_params, GAMMA_REF,
                                      n_loads=30, horizon_jumps=4000, seed=5)
    a = successive_refinement(cost_fn, initial_level=0, max_level=1,
                              seed=7, exploration=0.05, max_steps_per_level=16)
    b = successive_refinement(cost_fn, initial_level=0, max_level=1,
                              seed=7, exploration=0.05, max_steps_per_level=16)
    assert np.array_equal(a[0].alphas, b[0].alphas)
    assert [s[3] for s in a[1].steps] == [s[3] for s in b[1].steps]


def _two_segment_cost(dist):
    u = dist.to_threshold_distribution()
    zq = np.linspace(dist.domain[0], dist.domain[1], 33)
    ideal = np.clip(2.0 * (zq - dist.domain[0]) / (dist.domain[1] - dist.domain[0]) - 0.5,
                    0.0, 1.0)
    return CostEstimate(float(np.mean((np.asarray(u(zq)) - ideal) ** 2)), 0.0)


def _quadratic_cost(dist):
    return CostEstimate(float(np.sum((dist.alphas - 0.37) ** 2)), 0.0)


_REFINEMENT_CASES = {
    "defaults": (_two_segment_cost, {}),
    "patience_break": (_quadratic_cost, dict(max_level=2, patience=2, delta_j=1e-3,
                                             exploration=0.05, seed=3)),
    "infinite_delta_j": (_two_segment_cost, dict(max_level=4, delta_j=np.inf)),
    "odd_steps_per_level": (_two_segment_cost, dict(max_level=2, max_steps_per_level=5,
                                                    epsilon=0.4, seed=1)),
    "linear": (_two_segment_cost, dict(max_level=3, shape="linear", epsilon=0.4,
                                       exploration=0.05, patience=8, seed=4,
                                       domain=(0.0, 100.0))),
    "no_steps": (_two_segment_cost, dict(max_level=2, max_steps_per_level=0)),
}


def _same_refinement(got, want):
    (best, trace), (best_ref, trace_ref) = got, want
    assert best.level == best_ref.level
    assert best.alphas.tobytes() == best_ref.alphas.tobytes()
    assert len(trace.steps) == len(trace_ref.steps)
    for (k, lv, al, j), (k_ref, lv_ref, al_ref, j_ref) in zip(trace.steps, trace_ref.steps):
        assert (k, lv, j) == (k_ref, lv_ref, j_ref)
        assert al.tobytes() == al_ref.tobytes()
    assert trace.refinements == trace_ref.refinements


@pytest.mark.parametrize("name", list(_REFINEMENT_CASES))
def test_successive_refinement_matches_frozen_reference(name):
    from reference_heuristic import successive_refinement as reference
    cost_fn, kwargs = _REFINEMENT_CASES[name]
    got = successive_refinement(cost_fn, **kwargs)
    want = reference(cost_fn, **kwargs)
    _same_refinement(got, want)
    if name == "patience_break":
        # the first level stopped by patience, well before its 60 steps
        assert got[1].refinements[0][0] < 60
    if name == "linear":
        assert got[1].refinements


def test_successive_refinement_matches_frozen_reference_on_episodes(ref_env, ref_params):
    from reference_heuristic import successive_refinement as reference
    cost_fn = make_simulation_cost_fn(ref_env, ref_params, GAMMA_REF,
                                      n_loads=20, horizon_jumps=300, seed=9)
    kwargs = dict(initial_level=1, max_level=2, seed=5, exploration=0.05,
                  max_steps_per_level=12, domain=(0.0, 100.0))
    _same_refinement(successive_refinement(cost_fn, **kwargs), reference(cost_fn, **kwargs))
