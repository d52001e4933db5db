from dataclasses import replace

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
    emp_mass = sum(v for (load, loc), v in res.dwell_fractions.items() if loc == 50.0)
    assert emp_mass == pytest.approx(dist.mass_at(50.0), abs=0.02)


def test_occupation_reads_each_mass_where_the_load_parks(ref_env, ref_params):
    # 5e-10 above Theta_1 a load parks at Theta_1 in comfort state 1 and at
    # z in comfort state 2; the mass at z lies above the edge at Theta_1
    z = 50.0 + 5e-10
    cfg = SimulationConfig(n_loads=1, horizon_jumps=20000, seed=3,
                           set_points=np.array([z]), record_occupation=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    assert {loc for (load, loc) in res.dwell_fractions} == {0.0, 50.0, z}
    [k] = np.flatnonzero(res.occupation_edges == 50.0)
    analytic = solve_stationary(z, ref_env, ref_params).cdf(50.0)
    assert res.occupation_cdf[0, k] == pytest.approx(analytic, abs=0.02)


def test_three_load_trajectories_follow_fig5_pattern(ref_env, ref_params):
    z = np.array([60.0, 70.0, 80.0])
    cfg = SimulationConfig(n_loads=3, horizon_jumps=20000, seed=3,
                           set_points=z, record_occupation=True,
                           record_trace=True)
    res = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    # staggered parking at the three set-points is observed
    for i, zi in enumerate(z):
        dwell = sum(v for (load, loc), v in res.dwell_fractions.items()
                    if load == i and loc == zi)
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


@pytest.mark.parametrize("field", ["n_loads", "horizon_jumps", "occupation_edges"])
@pytest.mark.parametrize("value", [2.0, 100.0, 10.5, np.float64(3.0), True])
def test_config_rejects_non_integer_counts(field, value):
    # as the CLI does: a float or a bool is not a count, even a whole one
    with pytest.raises(ValueError, match=field):
        SimulationConfig(**{"n_loads": 2, "horizon_jumps": 100, "seed": 0, field: value})


def test_config_takes_numpy_integer_counts():
    cfg = SimulationConfig(n_loads=np.int64(2), horizon_jumps=np.int32(100), seed=0,
                           occupation_edges=np.int64(11))
    assert (cfg.n_loads, cfg.horizon_jumps, cfg.occupation_edges) == (2, 100, 11)


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


# --- the recursion/accounting split against the frozen per-segment simulator


def _case(name, env_w3, env3, params3, ref_env, ref_params):
    return {"ref": (ref_env, ref_params), "w3": (env_w3, ref_params),
            "c3": (env3, params3)}[name]


@pytest.mark.parametrize("n_loads, jumps", [(1, 20000), (3, 5000), (100, 1500)])
@pytest.mark.parametrize("name", ["ref", "w3", "c3"])
def test_matches_frozen_reference(name, n_loads, jumps, env_w3, env3, params3,
                                  ref_env, ref_params):
    from reference_simulate import reference_simulate
    env, params = _case(name, env_w3, env3, params3, ref_env, ref_params)
    rng = np.random.default_rng(n_loads)
    if n_loads == 1:
        z = np.array([90.0])
    elif n_loads == 3:
        z = np.array([65.0, 65.0, 90.0])            # one duplicated set-point
    else:                                           # duplicates and comfort levels
        z = np.concatenate([np.round(rng.uniform(20.0, 100.0, 90)),
                            params.comfort_levels[:1] * 5, [100.0] * 5])
    for initial, burn_in in ((0.0, 0.1), (float(z.min()), 0.3)):
        cfg = SimulationConfig(n_loads=n_loads, horizon_jumps=jumps, seed=17,
                               set_points=z, record_occupation=True, record_trace=True,
                               initial_temperature=initial, burn_in=burn_in)
        got = simulate(cfg, env, params, GAMMA_REF)
        want = reference_simulate(cfg, env, params, GAMMA_REF)
        for part in ("power_cost", "discomfort_cost"):
            assert getattr(got.empirical_cost, part) == pytest.approx(
                getattr(want.empirical_cost, part), rel=1e-12, abs=0.0)
        assert (got.total_time, got.accounted_time, got.n_segments) == \
            (want.total_time, want.accounted_time, want.n_segments)
        assert np.abs(got.occupation_cdf - want.occupation_cdf).max() <= 1e-10
        assert set(got.dwell_fractions) == set(want.dwell_fractions)
        for key, value in want.dwell_fractions.items():
            assert got.dwell_fractions[key] == pytest.approx(value, rel=0.0, abs=1e-12)
        assert got.trace_x.tobytes() == want.trace_x.tobytes()
        for field in ("trace_times", "trace_wind", "trace_comfort"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_block_boundaries_do_not_change_results(monkeypatch, env_w3, ref_params):
    # blocks of 7 segments carry the temperatures, sums and occupation
    # across 700 boundaries, with the burn-in ending inside a block
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    cfg = SimulationConfig(n_loads=4, horizon_jumps=5000, seed=9,
                           set_points=np.array([55.0, 70.0, 70.0, 95.0]),
                           record_occupation=True, record_trace=True, burn_in=0.25)
    whole = simulate(cfg, env_w3, ref_params, GAMMA_REF)
    monkeypatch.setattr(module, "_BLOCK", 7)
    blocked = simulate(cfg, env_w3, ref_params, GAMMA_REF)
    assert blocked.empirical_cost.total == pytest.approx(whole.empirical_cost.total,
                                                         rel=1e-12)
    assert np.abs(blocked.occupation_cdf - whole.occupation_cdf).max() <= 1e-12
    assert blocked.dwell_fractions == whole.dwell_fractions
    assert blocked.trace_x.tobytes() == whole.trace_x.tobytes()
    assert blocked.accounted_time == whole.accounted_time


def _quadrature_costs(env, params, z, x0, seed, jumps, steps=20000):
    # midpoint rule over every segment: power_split along exact_flow
    from zpolicy import sample_environment_path
    from zpolicy.model import exact_flow, power_split
    path = sample_environment_path(env, jumps, np.random.default_rng(seed))
    rates = params.wind_cooling_rates(env.n_wind)
    x, g2, disc = np.full(len(z), x0), 0.0, 0.0
    for wind, comfort, dur in zip(path.wind.tolist(), path.comfort.tolist(),
                                  path.durations.tolist()):
        args = (params.comfort_levels[comfort], params.h, params.c, rates[wind])
        mid = (np.arange(steps) + 0.5) * dur / steps
        xm = exact_flow(x, z, *args, mid[:, None], wind)
        _, grid = power_split(xm, z, *args, wind)
        g2 += np.sum(grid.sum(axis=1) ** 2) * dur / steps
        disc += np.sum(np.maximum(xm - args[0], 0.0) ** 2) * dur / steps
        x = exact_flow(x, z, *args, dur, wind)
    t = path.total_time
    return g2 / t / len(z) ** 2, disc / t / len(z)


@pytest.mark.parametrize("initial", [45.0, 60.0])
@pytest.mark.parametrize("z", [[30.0], [30.0, 70.0]])
def test_costs_of_load_above_set_point_match_quadrature(z, initial, ref_env, ref_params):
    # a load that starts above its set-point with wind off cools at c and
    # draws h + c until it parks; from 60 it also starts above Theta_1
    z = np.array(z)
    cfg = SimulationConfig(n_loads=len(z), horizon_jumps=5, seed=3, set_points=z,
                           initial_temperature=initial, burn_in=0.0)
    res = simulate(cfg, ref_env, ref_params, gamma=1.0)
    power, disc = _quadrature_costs(ref_env, ref_params, z, initial, 3, 5)
    assert res.empirical_cost.power_cost == pytest.approx(power, rel=1e-4)
    assert res.empirical_cost.discomfort_cost == pytest.approx(disc, rel=1e-4, abs=1e-12)


@pytest.mark.parametrize("change", [
    {"horizon_jumps": 0}, {"horizon_jumps": -5},
    {"burn_in": 1.0}, {"burn_in": 1.5}, {"burn_in": -0.1},
    {"burn_in": float("nan")}, {"burn_in": float("inf")},
    {"initial_temperature": -1.0}, {"initial_temperature": float("nan")},
    {"initial_temperature": float("inf")},
    {"occupation_edges": 1}, {"occupation_edges": 0},
])
def test_config_rejects_bad_horizon_burn_in_start_and_edges(change):
    with pytest.raises(ValueError):
        SimulationConfig(**{"n_loads": 2, "horizon_jumps": 100, "seed": 0, **change})


@pytest.mark.parametrize("name", ["ref", "w3", "c3", "non_birth_death", "absorbing"])
def test_factor_path_matches_frozen_sampler(name, ref_env, env_w3, env3):
    # the jump tables are built once per chain; the path, the variates it
    # reads and the state the generator is left in are the frozen sampler's
    from reference_cftp import factor_path
    from zpolicy.model import _draw_jumps, _FactorChain, _walk
    q = {"ref": ref_env.wind_generator, "w3": env_w3.wind_generator,
         "c3": env3.comfort_generator, "non_birth_death": _non_birth_death_wind().wind_generator,
         "absorbing": np.array([[-0.5, 0.0, 0.0], [0.25, 0.0, 0.0], [0.25, 0.0, 0.0]])}[name]
    chain, row = _FactorChain(q), np.zeros(1, dtype=np.int64)
    for n in (1, 2, 64, 5000):
        for start in range(len(q)):
            got_rng, want_rng = np.random.default_rng([n, start]), np.random.default_rng([n, start])
            times, states = _walk(chain, row, [start], *_draw_jumps(chain, row, [got_rng], n))
            got = times[0], states[0]
            want = factor_path(q, start, n, want_rng)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got_rng.random() == want_rng.random()


def _same_run(a, b):
    """Two runs with bitwise the same costs, trace, occupation and dwell."""
    assert (a.empirical_cost.power_cost, a.empirical_cost.discomfort_cost) == \
        (b.empirical_cost.power_cost, b.empirical_cost.discomfort_cost)
    assert a.trace_x.tobytes() == b.trace_x.tobytes()
    assert a.occupation_cdf.tobytes() == b.occupation_cdf.tobytes()
    assert a.dwell_fractions == b.dwell_fractions
    assert list(map(str, a.dwell_fractions)) == list(map(str, b.dwell_fractions))


@pytest.mark.parametrize("name", ["ref", "w3", "c3"])
@pytest.mark.parametrize("block, chunk, cells", [(4096, 128, 1 << 18), (7, 3, 40), (50, 2, 300)])
def test_lockstep_and_per_load_recursions_give_the_same_run(name, block, chunk, cells,
                                                            monkeypatch, env_w3, env3, params3,
                                                            ref_env, ref_params):
    # the run with the lockstep recursion forced on equals the run with
    # flow_path per load, also with short chunks and windows of a few
    # blocks, so that reruns and temperatures cross window boundaries
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    model = importlib.import_module("zpolicy.model")
    env, params = _case(name, env_w3, env3, params3, ref_env, ref_params)
    monkeypatch.setattr(module, "_BLOCK", block)
    monkeypatch.setattr(module, "_WINDOW_CELLS", cells)
    monkeypatch.setattr(model, "_CHUNK", chunk)
    cfg = SimulationConfig(n_loads=6, horizon_jumps=3000, seed=11,
                           set_points=np.array([0.0, 40.0, 70.0, 70.0, 88.5, 100.0]),
                           record_occupation=True, record_trace=True, burn_in=0.3,
                           initial_temperature=120.0)
    runs = []
    for work in (0, 10 ** 18):
        monkeypatch.setattr(model, "_LOCKSTEP_WORK", work)
        runs.append(simulate(cfg, env, params, GAMMA_REF))
    _same_run(*runs)


def test_signed_zero_start_and_set_point_run_as_zero(monkeypatch, ref_env, ref_params):
    # -0.0 is a valid start, set-point and comfort level; both recursions run
    # it as 0.0, where flow_path alone would keep the sign and exact_flow
    # would not
    import importlib
    model = importlib.import_module("zpolicy.model")
    runs = {}
    for zero in (-0.0, 0.0):
        cfg = SimulationConfig(n_loads=3, horizon_jumps=2000, seed=2,
                               set_points=np.array([zero, 30.0, 80.0]),
                               record_occupation=True, record_trace=True, burn_in=0.0,
                               initial_temperature=zero)
        for work in (0, 10 ** 18):
            monkeypatch.setattr(model, "_LOCKSTEP_WORK", work)
            runs[zero, work] = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    _same_run(runs[-0.0, 0], runs[-0.0, 10 ** 18])
    assert runs[-0.0, 0].trace_x.tobytes() == runs[0.0, 0].trace_x.tobytes()
    assert not np.signbit(runs[-0.0, 0].trace_x).any()
    # a comfort level of -0.0 is read as 0.0, so loads park at 0.0 under it
    levels = {zero: LoadParams(ref_params.h, ref_params.c, (zero, 100.0)) for zero in (-0.0, 0.0)}
    assert not np.signbit(levels[-0.0].comfort_levels[0])
    cfg = SimulationConfig(n_loads=3, horizon_jumps=3000, seed=2,
                           set_points=np.array([0.0, 30.0, 80.0]),
                           record_occupation=True, record_trace=True, burn_in=0.0)
    for work in (0, 10 ** 18):
        monkeypatch.setattr(model, "_LOCKSTEP_WORK", work)
        signed, plain = (simulate(cfg, ref_env, levels[zero], GAMMA_REF) for zero in (-0.0, 0.0))
        _same_run(signed, plain)
        assert not np.signbit(signed.trace_x).any()


def test_recursion_switches_to_lockstep_at_the_work_crossover(monkeypatch, ref_env,
                                                                ref_params):
    # distinct set-points x segments decides; equal set-points count once.
    # Only the lockstep side calls exact_flow
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    model = importlib.import_module("zpolicy.model")
    calls = []
    flow = model.exact_flow
    monkeypatch.setattr(model, "exact_flow", lambda *a: calls.append(1) or flow(*a))
    for n_distinct, jumps in ((1, 500), (2, 500), (3, 500)):
        cfg = SimulationConfig(n_loads=6, horizon_jumps=jumps, seed=1,
                               set_points=np.repeat(np.linspace(60.0, 90.0, n_distinct),
                                                    6 // n_distinct))
        episode = module.sample_episode(cfg, ref_env, ref_params)
        monkeypatch.setattr(model, "_LOCKSTEP_WORK",
                            2 * len(episode.path.start_times))
        calls.clear()
        module.run_episode(episode, cfg.resolve_set_points(ref_params), GAMMA_REF)
        assert bool(calls) == (n_distinct >= 2)


@pytest.mark.parametrize("n_edges", [2, 3, 401, 1000])
@pytest.mark.parametrize("top", [100.0, 37.3, 1e-3, 0.0])
def test_occupation_bins_match_searchsorted(n_edges, top):
    # the bin of a value is guessed from the even spacing of the edges and
    # corrected by one comparison each way: every edge, its neighbours,
    # negative values and values above Theta_C land where searchsorted puts
    # them, also when one comfort level at 0 makes every edge 0
    from zpolicy.simulate import _Occupation
    edges = np.linspace(0.0, top, n_edges)
    occ = _Occupation(np.array([top / 2]), np.array([top]), edges)
    rng = np.random.default_rng(n_edges)
    v = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [-1.0, -5e-324, -0.0, 0.0, 2 * top, 1e300, np.inf, -np.inf],
                        rng.uniform(-0.1 * top, 1.1 * top, 20000)])
    assert np.array_equal(occ._bin(v), np.searchsorted(edges, v, side="right"))



@pytest.mark.parametrize("name", ["ref", "w3", "c3"])
def test_tile_size_does_not_change_results(name, monkeypatch, env_w3, env3, params3,
                                           ref_env, ref_params):
    # tiles of one load, tiles that leave a ragged last one and one tile
    # per block give bitwise the same run, over three blocks (the first
    # cut by the burn-in), and so does a replay from kept columns
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    env, params = _case(name, env_w3, env3, params3, ref_env, ref_params)
    z = np.array([0.0, 40.0, 55.0, 70.0, 70.0, 88.5, 100.0])
    cfg = SimulationConfig(n_loads=7, horizon_jumps=9000, seed=13, set_points=z,
                           record_occupation=True, record_trace=True, burn_in=0.3,
                           initial_temperature=120.0)
    runs = []
    for cells in (1, 4 * module._BLOCK, 1 << 30):
        monkeypatch.setattr(module, "_TILE_CELLS", cells)
        episode = module.sample_episode(cfg, env, params)
        runs.append([simulate(cfg, env, params, GAMMA_REF),
                     module.run_episode(episode, z[:5], GAMMA_REF),
                     module.run_episode(episode, z, GAMMA_REF)])
    assert runs[0][0].n_segments > 2 * module._BLOCK
    for got in runs[1:]:
        for a, b in zip(runs[0], got):
            assert (a.empirical_cost.power_cost, a.empirical_cost.discomfort_cost) == \
                (b.empirical_cost.power_cost, b.empirical_cost.discomfort_cost)
            assert np.array_equal(a.occupation_cdf, b.occupation_cdf)
            assert a.dwell_fractions == b.dwell_fractions
            assert np.array_equal(a.trace_x, b.trace_x)
    _same_run(runs[0][0], runs[0][2])


@pytest.mark.parametrize("name", ["ref", "w3", "c3"])
@pytest.mark.parametrize("block, cells", [(4096, 1 << 18), (7, 40)])
def test_replays_match_fresh_runs(name, block, cells, monkeypatch, env_w3, env3, params3,
                                  ref_env, ref_params):
    # a replayed episode walks only the set-points it has not kept, and
    # every run over it, from kept columns, fresh ones or both, is bitwise
    # the run simulate makes of its set-points: costs, trace, occupation
    # and dwell.  It keeps all set-points run so far while they number at
    # most n_loads (6), and else the last run's
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    env, params = _case(name, env_w3, env3, params3, ref_env, ref_params)
    monkeypatch.setattr(module, "_BLOCK", block)
    monkeypatch.setattr(module, "_WINDOW_CELLS", cells)
    walked = []
    flow = module.flow_paths
    monkeypatch.setattr(module, "flow_paths",
                        lambda x0, z, *a: walked.extend(z.tolist()) or flow(x0, z, *a))
    cfg = SimulationConfig(n_loads=6, horizon_jumps=2000, seed=11, record_occupation=True,
                           record_trace=True, burn_in=0.3, initial_temperature=120.0)
    episode = module.sample_episode(cfg, env, params)
    runs = [([0.0, 40.0, 70.0, 70.0, 88.5, 100.0], [0.0, 40.0, 70.0, 88.5, 100.0]),
            ([0.0, 40.0, 55.0, 55.0, 70.0, 100.0], [0.0, 40.0, 55.0, 70.0, 88.5, 100.0]),
            ([0.0, 0.0, 40.0, 40.0, 70.0, 100.0], [0.0, 40.0, 55.0, 70.0, 88.5, 100.0]),
            ([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [10.0, 20.0, 30.0, 40.0, 50.0, 60.0])]
    seen = set()
    for z, kept in runs:
        walked.clear()
        got = module.run_episode(episode, np.array(z), GAMMA_REF)
        assert sorted(set(walked)) == sorted(set(z) - seen)
        _same_run(got, simulate(replace(cfg, set_points=np.array(z)), env, params, GAMMA_REF))
        assert episode.kept.z.tolist() == kept
        assert episode.kept.columns.shape == (4, len(got.trace_times), len(kept))
        seen = set(kept)


def test_one_simulate_call_keeps_no_columns(monkeypatch, ref_env, ref_params):
    # simulate runs its episode once, so it keeps no per-set-point columns
    # and its memory stays that of a window; run_episode keeps them
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    episodes = []
    sample = module.sample_episode
    monkeypatch.setattr(module, "sample_episode",
                        lambda *a: episodes.append(sample(*a)) or episodes[-1])
    cfg = SimulationConfig(n_loads=3, horizon_jumps=500, seed=3,
                           set_points=np.array([30.0, 60.0, 60.0]))
    result = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    (episode,) = episodes
    assert episode.kept.z.size == 0 and episode.kept.columns.size == 0
    again = module.run_episode(episode, result.set_points, GAMMA_REF)
    assert again.empirical_cost == result.empirical_cost
    assert episode.kept.z.tolist() == [30.0, 60.0]


def test_one_shot_run_neither_reads_nor_changes_kept_columns(ref_env, ref_params):
    # a run that does not keep starts from an empty table: over an episode
    # that holds kept columns, here poisoned with NaN, it returns bitwise
    # what simulate returns, for kept and fresh set-points alike, and
    # leaves the kept table as it was
    import importlib
    module = importlib.import_module("zpolicy.simulate")
    cfg = SimulationConfig(n_loads=3, horizon_jumps=2000, seed=7, record_occupation=True,
                           record_trace=True, burn_in=0.2)
    episode = module.sample_episode(cfg, ref_env, ref_params)
    for z in ([30.0, 60.0, 60.0], [60.0, 80.0, 90.0]):
        module.run_episode(episode, np.array(z), GAMMA_REF)
    kept = episode.kept
    assert kept.z.tolist() == [60.0, 80.0, 90.0]
    kept.columns = np.full_like(kept.columns, np.nan)
    z_kept, columns = kept.z, kept.columns
    for z in ([60.0, 80.0, 90.0], [30.0, 60.0, 90.0], [10.0, 20.0, 30.0]):
        got = module._run(episode, np.array(z), GAMMA_REF, keep=False)
        _same_run(got, simulate(replace(cfg, set_points=np.array(z)), ref_env, ref_params,
                                GAMMA_REF))
        assert episode.kept is kept and kept.z is z_kept and kept.columns is columns
        assert kept.z.tolist() == [60.0, 80.0, 90.0] and np.isnan(columns).all()


def test_negative_zero_set_point_reads_as_zero(ref_env, ref_params):
    # resolve_set_points reads -0.0 as 0.0, so the result, its dwell keys
    # and simulate.json carry 0.0, and the run is the one from 0.0
    runs = {}
    for zero in (-0.0, 0.0):
        cfg = SimulationConfig(n_loads=2, horizon_jumps=2000, seed=2,
                               set_points=np.array([zero, 80.0]), record_occupation=True,
                               record_trace=True)
        runs[zero] = simulate(cfg, ref_env, ref_params, GAMMA_REF)
    signed = runs[-0.0]
    assert not np.signbit(signed.set_points).any()
    assert (0, 0.0) in signed.dwell_fractions
    assert "(0, 0.0)" in list(map(str, signed.dwell_fractions))
    assert "(0, -0.0)" not in list(map(str, signed.dwell_fractions))
    _same_run(signed, runs[0.0])
