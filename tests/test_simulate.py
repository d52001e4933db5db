import numpy as np
import pytest

from zpolicy import (
    LoadParams, SimulationConfig, ThresholdDistribution, build_environment,
    check_dominance, child_seed, empirical_cdf, sample_environment_path, simulate,
    solve_stationary,
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


def _reference_2x2_path(env, n_jumps, rng):
    # frozen copy of the earlier vectorized 2x2 sampler: alternating jump
    # times per factor, merged and cut to n_jumps transitions
    def alternating(rate_a, rate_b, n):
        rates = np.where(np.arange(n) % 2 == 0, rate_a, rate_b)
        scales = np.where(rates > 0, 1.0 / np.where(rates > 0, rates, 1.0), np.inf)
        return np.cumsum(rng.exponential(scales))

    initial_state = int(rng.choice(env.n_states, p=env.stationary()))
    w0, c0 = env.split_index(initial_state)
    qw, qc = env.wind_generator, env.comfort_generator
    wt = alternating(-qw[w0, w0], -qw[1 - w0, 1 - w0], n_jumps)
    ct = alternating(-qc[c0, c0], -qc[1 - c0, 1 - c0], n_jumps)
    merged = np.sort(np.concatenate([wt, ct]))[:n_jumps]
    t_end = merged[-1] if len(merged) else 0.0
    starts = np.concatenate([[0.0], merged])
    wind = (w0 + np.searchsorted(wt, starts, side="right")) % 2
    comfort = (c0 + np.searchsorted(ct, starts, side="right")) % 2
    durs = np.diff(np.concatenate([starts, [t_end + (starts[-1] - starts[-2] if len(starts) > 1 else 1.0)]]))
    state = int(wind[-1] * env.n_comfort + comfort[-1])
    rate = -env.generator[state, state]
    durs[-1] = rng.exponential(1.0 / rate) if rate > 0 else durs[:-1].mean()
    return starts, wind.astype(np.int64), comfort.astype(np.int64), durs


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n_jumps", [1, 2, 7, 20000])
def test_reference_path_matches_frozen_2x2_sampler(ref_env, seed, n_jumps):
    path = sample_environment_path(ref_env, n_jumps, np.random.default_rng(seed))
    expected = _reference_2x2_path(ref_env, n_jumps, np.random.default_rng(seed))
    for got, want in zip((path.start_times, path.wind, path.comfort, path.durations), expected):
        assert np.array_equal(got, want)


def _non_birth_death_wind():
    # a cycle 0 -> 1 -> 2 -> 0 with a shortcut 0 -> 2: not reversible
    q = np.zeros((3, 3))
    for src, dst, rate in ((0, 1, 0.05), (1, 2, 0.04), (2, 0, 0.03), (0, 2, 0.01)):
        q[dst, src] += rate
        q[src, src] -= rate
    return MarkovEnvironment(wind_generator=q,
                             comfort_generator=np.array([[-0.02, 0.02], [0.02, -0.02]]))


@pytest.mark.parametrize("name", ["w3", "c3", "non_birth_death"])
def test_path_occupation_and_holding_times(name, env_w3, env3):
    env = {"w3": env_w3, "c3": env3, "non_birth_death": _non_birth_death_wind()}[name]
    path = sample_environment_path(env, 200000, np.random.default_rng(11))
    state = path.wind * env.n_comfort + path.comfort
    assert len(state) == 200001 and np.all(path.durations > 0)
    # every transition is one the generator allows
    q = env.generator
    assert np.all(q[state[1:], state[:-1]] > 0)
    share = np.bincount(state, weights=path.durations, minlength=env.n_states)
    assert np.abs(share / path.durations.sum() - env.stationary()).max() <= 0.008
    for s in range(env.n_states):
        mean_hold = path.durations[state == s].mean()
        assert mean_hold == pytest.approx(-1.0 / q[s, s], rel=0.04)
