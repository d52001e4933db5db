import numpy as np
import pytest

from zpolicy import (
    LoadParams, SimulationConfig, ThresholdDistribution, build_environment,
    check_dominance, child_seed, empirical_cdf, simulate, solve_stationary,
)
from zpolicy.errors import InvalidSetPoint, MissingOccupation
from zpolicy.model import MarkovEnvironment

from conftest import GAMMA_REF


def _result_fields(res):
    return (res.empirical_cost.power_cost, res.empirical_cost.discomfort_cost,
            res.total_time, res.accounted_time, res.n_segments,
            tuple(res.set_points))


def test_same_seed_bit_identical(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=3, horizon_jumps=5000, seed=42,
                           set_points=np.array([60.0, 70.0, 80.0]),
                           record_occupation=True, record_trace=True)
    a = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    b = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    assert _result_fields(a) == _result_fields(b)
    assert np.array_equal(a.trace_x, b.trace_x)
    assert np.array_equal(a.occupation_cdf, b.occupation_cdf)


def test_child_seed_splitting_documented():
    assert child_seed(7, 0) != child_seed(7, 1)
    assert child_seed(7, 3) == child_seed(7, 3)


def test_wind_permanently_on_no_grid_power(ref_params):
    env = MarkovEnvironment(
        wind_generator=np.array([[-1.0, 0.0], [1.0, 0.0]]),  # on is absorbing
        comfort_generator=np.array([[-0.02, 0.02], [0.02, -0.02]]))
    cfg = SimulationConfig(n_loads=4, horizon_jumps=4000, seed=0,
                           set_points=np.array([40.0, 60.0, 80.0, 100.0]),
                           initial_temperature=100.0, burn_in=0.2)
    res = simulate(cfg, env, ref_params, gamma=0.0)
    assert res.empirical_cost.power_cost == 0.0


def test_single_comfort_occupation_matches_analytic():
    env = build_environment((0.04, 0.04), ())
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0,))
    dist = solve_stationary(50.0, env, params)
    cfg = SimulationConfig(n_loads=1, horizon_jumps=1000000, seed=19,
                           set_points=np.array([50.0]), record_occupation=True)
    res = simulate(cfg, env, params, gamma=0.0)
    emp_mass = sum(v for (load, loc), v in res.dwell_fractions.items()
                   if abs(loc - 50.0) < 1e-6)
    assert emp_mass == pytest.approx(dist.mass_at(50.0), abs=0.02)


def test_three_load_trajectories_follow_fig5_pattern(ref_env, ref_params):
    z = np.array([60.0, 70.0, 80.0])
    cfg = SimulationConfig(n_loads=3, horizon_jumps=20000, seed=3,
                           set_points=z, record_occupation=True,
                           record_trace=True)
    res = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    # staggered parking at the three set-points is observed
    for i, zi in enumerate(z):
        dwell = sum(v for (load, loc), v in res.dwell_fractions.items()
                    if load == i and abs(loc - zi) < 1e-6)
        assert dwell > 0.02
    # temperatures never exceed min(Z, Theta_M): in particular never Z
    assert np.all(res.trace_x <= z[None, :] + 1e-12)
    # the common environment keeps the loads ordered at every instant
    gaps = np.diff(res.trace_x, axis=1)
    assert gaps.min() >= -1e-12


def test_empirical_cdf_unit_step_for_z_zero(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=1, horizon_jumps=3000, seed=5,
                           set_points=np.array([0.0]), record_occupation=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    edges, per_load, agg = empirical_cdf(res)
    assert np.all(per_load[0] == 1.0)


def test_empirical_cdf_missing_occupation(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=1, horizon_jumps=100, seed=5,
                           set_points=np.array([50.0]))
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    with pytest.raises(MissingOccupation):
        empirical_cdf(res)


def test_lower_set_point_dominates_in_cdf(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=2, horizon_jumps=100000, seed=8,
                           set_points=np.array([60.0, 90.0]),
                           record_occupation=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    edges, per_load, _ = empirical_cdf(res)
    assert np.all(per_load[0] >= per_load[1] - 1e-9)


def test_dominance_holds_and_detector_fires(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=3, horizon_jumps=10000, seed=1,
                           set_points=np.array([55.0, 70.0, 95.0]),
                           record_trace=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    ok, info = check_dominance(res)
    assert ok and info is None
    # inject a fault: swap one recorded pair
    forged_x = res.trace_x.copy()
    forged_x[10, 0], forged_x[10, 1] = forged_x[10, 1] + 1.0, forged_x[10, 0]
    forged = type(res)(**{**res.__dict__, "trace_x": forged_x})
    ok2, info2 = check_dominance(forged)
    assert not ok2
    assert info2["instant"] == 10


def test_equal_set_points_identical_trajectories(ref_env, ref_params):
    cfg = SimulationConfig(n_loads=2, horizon_jumps=5000, seed=2,
                           set_points=np.array([70.0, 70.0]),
                           record_trace=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    assert np.array_equal(res.trace_x[:, 0], res.trace_x[:, 1])


def test_quantile_sampling_stratified(ref_params):
    u = ThresholdDistribution.step_function([50.0, 80.0], [0.5, 1.0],
                                            (0.0, 100.0))
    z = u.sample_quantiles(10)
    assert np.all(z[:5] == 50.0)
    assert np.all(z[5:] == 80.0)


def test_burn_in_discards_transient(ref_env, ref_params):
    # starting far from stationarity barely moves the cost thanks to burn-in
    base = SimulationConfig(n_loads=1, horizon_jumps=300000, seed=4,
                            set_points=np.array([100.0]))
    res_cold = simulate(base, ref_env, ref_params, gamma=0.0)
    warm = SimulationConfig(n_loads=1, horizon_jumps=300000, seed=4,
                            set_points=np.array([100.0]),
                            initial_temperature=100.0)
    res_warm = simulate(warm, ref_env, ref_params, gamma=0.0)
    assert res_cold.empirical_cost.power_cost == pytest.approx(
        res_warm.empirical_cost.power_cost, rel=0.02)


def test_ensemble_cost_matches_continuum_at_n100(ref_env, ref_params, ref_curves):
    # quantile-sampled optimal distribution: empirical ensemble cost agrees
    # with the continuum functional within 5% at N = 100
    from zpolicy import continuum_cost, euler_lagrange, project
    u_star = project(euler_lagrange(ref_curves, GAMMA_REF), ref_curves)
    j_star = continuum_cost(u_star, ref_curves, GAMMA_REF).total
    cfg = SimulationConfig(n_loads=100, horizon_jumps=1000000, seed=5,
                           distribution=u_star)
    emp = simulate(cfg, ref_env, ref_params, GAMMA_REF).empirical_cost.total
    assert abs(emp - j_star) / j_star <= 0.05


def test_config_rejects_no_loads():
    with pytest.raises(ValueError):
        SimulationConfig(n_loads=0, horizon_jumps=100, seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 150.0])
def test_simulate_rejects_set_points_outside_comfort_range(bad, ref_env, ref_params):
    cfg = SimulationConfig(n_loads=2, horizon_jumps=100, seed=0,
                           set_points=np.array([60.0, bad]))
    with pytest.raises(InvalidSetPoint):
        simulate(cfg, ref_env, ref_params, gamma=0.0)
