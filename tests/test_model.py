import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpolicy import (
    LoadParams, SimulationConfig, advance_temperatures, build_environment, finite_cost,
    point_mass_curves, sample_episode, sensitivity_curves, simulate, solve_hjb, solve_stationary,
)
from zpolicy.errors import NonPositiveRate
from zpolicy.model import _birth_death_generator, exact_flow, power_split

import reference_costs
from conftest import CHAIN_SIZES, chain_instance, chain_model, same_bits


def _split(x, z, wind, comfort, params, n_wind=2):
    """power_split for one load as (wind power, grid power) floats."""
    wind_power, grid_power = power_split(
        x, z, params.comfort_levels[comfort], params.h, params.c,
        params.wind_cooling_rates(n_wind)[wind], wind)
    return float(wind_power), float(grid_power)


def _drift(x, z, wind, comfort, params):
    """dx/dt under the threshold policy: h less the power it applies."""
    wind_power, grid_power = _split(x, z, wind, comfort, params)
    return params.h - wind_power - grid_power


def test_reference_generator_columns_sum_to_zero(ref_env):
    q = ref_env.generator
    assert q.shape == (4, 4)
    assert np.abs(q.sum(axis=0)).max() < 1e-12
    off_diag = q - np.diag(np.diag(q))
    assert off_diag.min() >= 0.0


def test_binary_wind_single_comfort_generator():
    env = build_environment((1.0, 1.0), ())
    assert np.allclose(env.generator, [[-1.0, 1.0], [1.0, -1.0]])


def test_three_wind_states_generator():
    env = build_environment([(0.1, 0.2), (0.3, 0.4)], (0.02, 0.02))
    assert env.generator.shape == (6, 6)
    assert np.abs(env.generator.sum(axis=0)).max() < 1e-12


def test_state_ordering_is_wind_comfort_lexicographic(ref_env):
    assert [ref_env.split_index(s) for s in range(4)] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_nonpositive_rate_rejected():
    with pytest.raises(NonPositiveRate):
        build_environment((0.0, 1.0), (0.02, 0.02))
    with pytest.raises(NonPositiveRate):
        build_environment((1.0, 1.0), (-0.1, 0.02))
    with pytest.raises(NonPositiveRate):
        build_environment((float("nan"), 1.0), (0.02, 0.02))
    with pytest.raises(NonPositiveRate):
        build_environment((1.0, 1.0), [(0.02, 0.02), (0.02, float("nan"))])


@pytest.mark.parametrize("h, c, levels", [
    (float("nan"), 1.1, (50.0, 100.0)), (1.0, float("inf"), (50.0, 100.0)),
    (1.0, 1.1, (float("nan"), 100.0)), (1.0, 1.1, (50.0, float("inf"))),
])
def test_load_params_reject_nonfinite(h, c, levels):
    with pytest.raises(ValueError):
        LoadParams(h=h, c=c, comfort_levels=levels)


def test_load_params_need_a_comfort_level():
    with pytest.raises(ValueError, match="one or more"):
        LoadParams(h=1.0, c=1.1, comfort_levels=())


@pytest.mark.parametrize("rates", [(0.1,), (0.1, 0.2, 0.3), [(0.1, 0.2), (0.3,)],
                                   [(0.1, 0.2, 0.3)], [0.1, (0.2, 0.3)]])
def test_rate_spec_that_is_no_pair_rejected(rates):
    for wind, comfort in ((rates, (0.02, 0.02)), ((0.04, 0.04), rates)):
        with pytest.raises(ValueError, match="pair"):
            build_environment(wind, comfort)


@pytest.mark.parametrize("levels, comfort_rates", [
    ((40.0, 70.0, 100.0), (0.02, 0.02)),              # 2 comfort states, 3 levels
    ((50.0, 100.0), [(0.02, 0.02), (0.02, 0.02)]),   # 3 comfort states, 2 levels
])
def test_environment_and_load_that_disagree_fail_early(levels, comfort_rates):
    env = build_environment((0.04, 0.04), comfort_rates)
    params = LoadParams(h=1.0, c=1.1, comfort_levels=levels)
    config = SimulationConfig(n_loads=2, horizon_jumps=100, seed=0, set_points=(60.0, 90.0))
    calls = [
        lambda: params.check_environment(env),
        lambda: solve_stationary(60.0, env, params),
        lambda: solve_stationary(0.0, env, params),
        lambda: point_mass_curves(env, params, [60.0]),
        lambda: sensitivity_curves(env, params),
        lambda: finite_cost([60.0, 90.0], env, params, gamma=0.0),
        lambda: sample_episode(config, env, params),
        lambda: simulate(config, env, params, gamma=0.0),
        lambda: solve_hjb(env, params, horizon=2.0, grid_step=10.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"one level per comfort state \({env.n_comfort}\)"):
            call()


def test_wind_cooling_rates(ref_params):
    rates = ref_params.wind_cooling_rates(3)
    assert rates[0] == 0.0
    assert rates[-1] == ref_params.c
    assert np.allclose(rates, [0.0, 0.55, 1.1])
    assert ref_params.wind_cooling_rates(1).tolist() == [0.0]


@pytest.mark.parametrize("n_wind, n_comfort", CHAIN_SIZES)
def test_chain_tables_match_reference_on_every_chain_size(n_wind, n_comfort):
    # rates and generators are bitwise the frozen one-state-branch versions
    env, params = chain_instance(n_wind, n_comfort)
    m = chain_model(n_wind, n_comfort)
    assert same_bits(params.wind_cooling_rates(n_wind),
                     reference_costs.wind_cooling_rates(params, n_wind))
    for rates in (m["wind_rates"], m["comfort_rates"]):
        assert same_bits(_birth_death_generator(rates),
                         reference_costs.birth_death_generator(rates))
    wind = reference_costs.birth_death_generator(m["wind_rates"])
    comfort = reference_costs.birth_death_generator(m["comfort_rates"])
    assert same_bits(env.generator, np.kron(wind, np.eye(n_comfort))
                     + np.kron(np.eye(n_wind), comfort))


def test_drift_interior_heating(ref_params):
    assert _drift(50.0, 80.0, wind=0, comfort=1, params=ref_params) == ref_params.h


def test_drift_parked_at_set_point(ref_params):
    assert _drift(80.0, 80.0, wind=0, comfort=1, params=ref_params) == 0.0


def test_drift_forced_cooling_any_wind():
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(70.0, 100.0))
    for wind in (0, 1):
        assert _drift(90.0, 95.0, wind=wind, comfort=0, params=params) == -params.c


def test_power_held_at_floor_under_wind(ref_params):
    wind_power, grid_power = _split(0.0, 80.0, wind=1, comfort=1, params=ref_params)
    assert wind_power == ref_params.h
    assert grid_power == 0.0


def test_power_parked(ref_params):
    assert _split(80.0, 80.0, wind=0, comfort=1, params=ref_params) == (0.0, ref_params.h)


def test_power_violation_cooling():
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(70.0, 100.0))
    assert _split(90.0, 95.0, wind=0, comfort=0, params=params) == (0.0, params.h + params.c)


def test_power_intermediate_wind_supplement():
    params = LoadParams(h=1.0, c=1.0, comfort_levels=(50.0, 100.0))
    wind_power, grid_power = _split(60.0, 90.0, wind=1, comfort=0, params=params,
                                    n_wind=3)
    # state 1 of 3 supports c/2; the grid supplies the other c/2
    assert wind_power == pytest.approx(params.h + 0.5)
    assert grid_power == pytest.approx(0.5)


def test_binary_grid_power_levels(ref_params):
    h, c = ref_params.h, ref_params.c
    seen = set()
    for x in (0.0, 20.0, 50.0, 60.0, 80.0, 95.0):
        for wind in (0, 1):
            for comfort in (0, 1):
                _, grid_power = _split(x, 80.0, wind, comfort, ref_params)
                seen.add(round(grid_power, 12))
    assert seen <= {0.0, h, h + c}


def test_step_absorbing_floor_under_wind(ref_params):
    out = advance_temperatures(np.zeros(3), np.array([30.0, 60.0, 90.0]),
                               wind=1, comfort=1, dt=5.0, params=ref_params)
    assert np.all(out == 0.0)


def test_step_parks_exactly(ref_params):
    out = advance_temperatures(np.array([10.0]), np.array([80.0]), wind=0, comfort=1,
                               dt=100.0, params=ref_params)
    assert out[0] == 80.0


def test_step_comfort_drop_two_segment():
    # hand-integrated: load 2 cools at c from 70 until Theta_1 = 65, then parks
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(65.0, 100.0))
    x = z = np.array([60.0, 70.0])
    out = advance_temperatures(x, z, wind=0, comfort=0, dt=10.0, params=params)
    assert out[0] == 60.0
    assert out[1] == pytest.approx(65.0, abs=1e-12)
    # partway through, the violating load is still cooling at rate c
    mid = advance_temperatures(x, z, wind=0, comfort=0, dt=2.0, params=params)
    assert mid[1] == pytest.approx(70.0 - 1.1 * 2.0)


def test_full_wind_empties_in_theta_over_c(ref_params):
    x = np.array([100.0, 42.0, 7.0])
    z = np.array([100.0, 60.0, 30.0])
    horizon = ref_params.theta_max / ref_params.c
    out = advance_temperatures(x, z, wind=1, comfort=1, dt=horizon,
                               params=ref_params)
    assert np.all(out == 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monotone_coupling_along_random_paths(seed):
    # Z_i < Z_j and x_i(0) <= x_j(0) imply x_i(t) <= x_j(t) under any
    # common environment path, with exact arithmetic
    rng = np.random.default_rng(seed)
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
    z = np.sort(rng.uniform(0.0, 100.0, 5))
    x = np.sort(rng.uniform(0.0, 100.0, 5))
    x = np.minimum(x, z)
    for _ in range(40):
        wind = int(rng.integers(0, 2))
        comfort = int(rng.integers(0, 2))
        dt = float(rng.exponential(12.0))
        x = advance_temperatures(x, z, wind, comfort, dt, params)
        assert np.all(np.diff(x) >= 0.0)
        assert x.min() >= 0.0 and x.max() <= params.theta_max


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_temperatures_stay_in_range(seed):
    rng = np.random.default_rng(seed)
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
    z = rng.uniform(0.0, 100.0, 4)
    x = np.minimum(rng.uniform(0.0, 100.0, 4), z)
    for _ in range(30):
        x = advance_temperatures(x, z, int(rng.integers(0, 2)),
                                 int(rng.integers(0, 2)),
                                 float(rng.exponential(20.0)), params)
        assert np.all((x >= 0.0) & (x <= params.theta_max))


def test_substep_bit_identity_on_dyadic_values():
    # dyadic rates and durations make the closed forms exact in floating
    # point, so sub-stepping must reproduce one call bit for bit
    params = LoadParams(h=1.0, c=0.5, comfort_levels=(64.0, 128.0))
    z = np.array([24.0, 72.0, 112.0])
    x = np.array([8.0, 16.0, 96.0])
    for wind, comfort in ((0, 0), (0, 1), (1, 0), (1, 1)):
        one = advance_temperatures(x, z, wind, comfort, 64.0, params)
        split = x.copy()
        for _ in range(8):
            split = advance_temperatures(split, z, wind, comfort, 8.0, params)
        assert np.array_equal(one, split)


def test_substep_agreement_general_values(ref_params):
    rng = np.random.default_rng(3)
    z = np.sort(rng.uniform(10.0, 100.0, 4))
    x = np.minimum(rng.uniform(0.0, 100.0, 4), z)
    for wind, comfort in ((0, 0), (0, 1), (1, 0), (1, 1)):
        one = advance_temperatures(x, z, wind, comfort, 37.7, ref_params)
        split = x.copy()
        for dt in (5.0, 12.3, 0.4, 20.0):
            split = advance_temperatures(split, z, wind, comfort, dt, ref_params)
        assert np.allclose(one, split, atol=1e-12)


def test_equal_set_points_couple_identically(ref_params):
    rng = np.random.default_rng(1)
    x = np.array([20.0, 20.0])
    z = np.array([70.0, 70.0])
    for _ in range(30):
        x = advance_temperatures(x, z, int(rng.integers(0, 2)),
                                 int(rng.integers(0, 2)),
                                 float(rng.exponential(15.0)), ref_params)
        assert x[0] == x[1]


def test_kernels_broadcast_per_load_parameters():
    # one kernel call over loads with their own h, c, comfort level and
    # wind cooling rate equals one call per load, bit for bit
    rng = np.random.default_rng(4)
    params = [LoadParams(1.0, 1.1, (50.0, 100.0)), LoadParams(0.7, 1.6, (30.0, 60.0, 90.0)),
              LoadParams(1.3, 0.9, (80.0,))]
    n_wind = 3
    for _ in range(200):
        wind = int(rng.integers(n_wind))
        comfort = [int(rng.integers(len(p.comfort_levels))) for p in params]
        z = np.array([rng.uniform(0.0, p.theta_max) for p in params])
        x = np.where(rng.random(3) < 0.3, z, [rng.uniform(0.0, p.theta_max) for p in params])
        dt = float(rng.exponential(20.0))
        args = (np.array([p.comfort_levels[j] for p, j in zip(params, comfort)]),
                np.array([p.h for p in params]), np.array([p.c for p in params]),
                np.array([p.wind_cooling_rates(n_wind)[wind] for p in params]))
        flowed = exact_flow(x, z, *args, dt, wind)
        wind_power, grid_power = power_split(x, z, *args, wind)
        for i, p in enumerate(params):
            one = advance_temperatures(x[i:i + 1], z[i:i + 1], wind, comfort[i], dt, p, n_wind)
            assert flowed[i] == one[0]
            assert (wind_power[i], grid_power[i]) == _split(x[i], z[i], wind, comfort[i], p, n_wind)


@pytest.mark.parametrize("wind_rates, levels", [
    ((0.04, 0.04), (50.0, 100.0)),
    ([(0.04, 0.04), (0.04, 0.04)], (50.0, 100.0)),
    ((0.04, 0.04), (40.0, 70.0, 100.0)),
])
def test_flow_path_matches_exact_flow_bitwise(wind_rates, levels):
    # the scalar recursion along a path equals exact_flow segment by
    # segment, signed zeros included, from parked, floor, violating and
    # out-of-band starts
    from zpolicy.model import exact_flow, flow_path
    rng = np.random.default_rng(12)
    params = LoadParams(1.0, 1.1, levels)
    n_wind = build_environment(wind_rates, (0.02, 0.02)).n_wind
    rates = params.wind_cooling_rates(n_wind)
    seen = {"parked": 0, "floor": 0, "above": 0, "crossing": 0}
    for _ in range(60):
        n = 200
        wind = rng.integers(n_wind, size=n)
        theta = np.asarray(levels)[rng.integers(len(levels), size=n)]
        dt = rng.exponential(1.0, n) * 10.0 ** rng.integers(-3, 3, size=n)
        z = float(rng.choice([rng.uniform(0.0, 100.0), 0.0, levels[0], 100.0]))
        x0 = float(rng.choice([z, 0.0, rng.uniform(0.0, 100.0)]))
        got = flow_path(x0, z, params.h, params.c, theta.tolist(),
                        rates[wind].tolist(), dt.tolist(), wind.tolist())
        want = [np.float64(x0)]
        for k in range(n):
            want.append(exact_flow(want[-1], z, theta[k], params.h, params.c,
                                   rates[wind[k]], dt[k], int(wind[k])))
        assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()
        x = np.array(got)
        park = np.where(wind == 0, np.minimum(z, theta), np.nan)
        seen["parked"] += int(np.sum(x[:-1] == park))
        seen["floor"] += int(np.sum((x[:-1] == 0.0) & (wind > 0)))
        seen["above"] += int(np.sum(x[:-1] > theta))
        seen["crossing"] += int(np.sum((x[:-1] > theta) & (x[1:] < theta)))
    assert min(seen.values()) > 0


def test_exact_flow_broadcasts_the_wind_state():
    # one call over loads in wind states 0, 1 and 2 (W3 rates) equals the
    # call per state and the flow as it was written before the wind state
    # broadcast, bit for bit; a zero duration maps every state to itself
    from reference_cftp import exact_flow as frozen
    from zpolicy.model import exact_flow
    rng = np.random.default_rng(21)
    params = LoadParams(1.0, 1.1, (50.0, 100.0))
    rates = params.wind_cooling_rates(3)
    n = 4000
    wind = rng.integers(3, size=n)
    theta = np.asarray(params.comfort_levels)[rng.integers(2, size=n)]
    z = rng.choice([rng.uniform(0.0, 100.0), 0.0, 50.0, 100.0], size=n)
    x = rng.uniform(0.0, 100.0, n)
    pick = rng.integers(5, size=n)
    x = np.select([pick == 0, pick == 1, pick == 2, pick == 3],
                  [np.minimum(z, theta), theta, 0.0, 100.0], x)
    dt = rng.exponential(1.0, n) * 10.0 ** rng.integers(-3, 3, size=n)
    dt[rng.random(n) < 0.1] = 0.0
    h, c = np.full(n, params.h), np.full(n, params.c)
    got = exact_flow(x, z, theta, h, c, rates[wind], dt, wind)
    for w in range(3):
        on = wind == w
        one = exact_flow(x[on], z[on], theta[on], h[on], c[on], rates[w], dt[on], w)
        old = frozen(x[on], z[on], theta[on], h[on], c[on], rates[w], dt[on], w)
        assert got[on].tobytes() == one.tobytes() == old.tobytes()
    assert exact_flow(x, z, theta, h, c, rates[wind], 0.0, wind).tobytes() == x.tobytes()
    assert exact_flow(got, z, theta, h, c, rates[wind], np.zeros(n), wind).tobytes() \
        == got.tobytes()


# (wind rates, comfort rates, comfort levels) of the instances the lockstep
# recursion is pinned on; FAST switches fast enough that reruns take tens to
# hundreds of segments to meet the stored trajectories
_PATH_MODELS = {
    "REF": ((0.04, 0.04), (0.02, 0.02), (50.0, 100.0)),
    "C3": ((0.04, 0.04), [(0.02, 0.02), (0.02, 0.02)], (40.0, 70.0, 100.0)),
    "W3": ([(0.04, 0.04), (0.04, 0.04)], (0.02, 0.02), (50.0, 100.0)),
    "FAST": ((0.3, 0.3), (0.15, 0.15), (50.0, 100.0)),
}


def _path_columns(name, n_jumps, seed, zero_share=0.0):
    """(params, theta, ci, dt, wind) of a sampled path of one instance, with a
    share of its durations set to 0."""
    from zpolicy import sample_environment_path
    wind_rates, comfort_rates, levels = _PATH_MODELS[name]
    env = build_environment(wind_rates, comfort_rates)
    params = LoadParams(1.0, 1.1, levels)
    rng = np.random.default_rng(seed)
    path = sample_environment_path(env, n_jumps, rng)
    dt = np.where(rng.random(len(path.durations)) < zero_share, 0.0, path.durations)
    return (params, np.asarray(levels)[path.comfort],
            params.wind_cooling_rates(env.n_wind)[path.wind], dt, path.wind)


@pytest.fixture
def lockstep(monkeypatch):
    """flow_paths on its lockstep path, whatever the run size."""
    from zpolicy import model
    monkeypatch.setattr(model, "_LOCKSTEP_WORK", 0)


def _stacked_flow_path(x0, z, params, theta, ci, dt, wind):
    """flow_path per load, stacked as a (segments + 1) x loads array."""
    from zpolicy.model import flow_path
    cols = [a.tolist() for a in (theta, ci, dt, wind)]
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), z.shape)
    return np.ascontiguousarray(np.array(
        [flow_path(a, b, params.h, params.c, *cols) for a, b in zip(x0.tolist(), z.tolist())],
        dtype=float).reshape(len(z), -1).T)


@pytest.mark.parametrize("name", list(_PATH_MODELS))
@pytest.mark.parametrize("n_jumps, x0", [(3000, 0.0), (3000, 130.0), (700, "per load")])
def test_flow_paths_matches_stacked_flow_path(name, n_jumps, x0, lockstep):
    # set-points on the comfort levels, at 0 and at Theta_C, starts at the
    # floor, above Theta_C or one per load, and a tenth of the segments of
    # zero duration
    from zpolicy.model import flow_paths
    params, *cols = _path_columns(name, n_jumps, seed=len(name) + n_jumps, zero_share=0.1)
    z = np.unique(np.concatenate([[0.0, 55.0, 72.5, 100.0], params.comfort_levels]))
    if x0 == "per load":
        x0 = np.linspace(0.0, 140.0, len(z))
    got = flow_paths(x0, z, params.h, params.c, *cols)
    assert got.shape == (len(cols[2]) + 1, len(z))
    assert got.tobytes() == _stacked_flow_path(x0, z, params, *cols).tobytes()


@pytest.mark.parametrize("name", list(_PATH_MODELS))
@pytest.mark.parametrize("n_seg", [0, 1, 2, 127, 128, 129])
def test_flow_paths_on_paths_shorter_than_a_few_chunks(name, n_seg, lockstep):
    from zpolicy.model import flow_paths
    params, *cols = _path_columns(name, 200, seed=n_seg)
    cols = [a[:n_seg] for a in cols]
    z = np.array([30.0, 60.0, 100.0])
    for x0 in (0.0, 45.0, 120.0):
        got = flow_paths(x0, z, params.h, params.c, *cols)
        assert got.tobytes() == _stacked_flow_path(x0, z, params, *cols).tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 128])
@pytest.mark.parametrize("few", [0, 5, 10 ** 9])
@pytest.mark.parametrize("name", ["REF", "FAST"])
def test_flow_paths_with_any_chunk_length_and_finishing_share(name, chunk, few, monkeypatch,
                                                              lockstep):
    # chunks of 1-3 segments leave most starts wrong, so reruns cross many
    # chunk ends; the last reruns run in lockstep (few=0), one at a time
    # from the start (few=1e9), or both
    from zpolicy import model
    monkeypatch.setattr(model, "_CHUNK", chunk)
    monkeypatch.setattr(model, "_FEW", few)
    params, *cols = _path_columns(name, 1500, seed=chunk + few)
    z = np.array([0.0, 50.0, 61.0, 61.5, 100.0])
    got = model.flow_paths(110.0, z, params.h, params.c, *cols)
    assert got.flags.c_contiguous
    assert got.tobytes() == _stacked_flow_path(110.0, z, params, *cols).tobytes()


@pytest.mark.parametrize("name", list(_PATH_MODELS))
def test_flow_paths_on_both_sides_of_the_crossover(name, monkeypatch):
    # one segment short of the crossover flow_paths walks flow_path per load
    # (no exact_flow call), from it on it steps in lockstep; both give the
    # same bits, read a -0.0 start or set-point as 0.0, and return a
    # C-contiguous array (a transposed view would change the order in which
    # sums over its rows add)
    from zpolicy import model
    params, *cols = _path_columns(name, 1200, seed=5, zero_share=0.1)
    z = np.array([-0.0, 0.0, 50.0, 61.0, 100.0])
    x0 = np.array([110.0, -0.0, -0.0, 0.0, 61.0])
    calls = []
    flow = model.exact_flow
    monkeypatch.setattr(model, "exact_flow", lambda *a: calls.append(1) or flow(*a))
    monkeypatch.setattr(model, "_LOCKSTEP_WORK", len(z) * 1000)
    for n_seg in (999, 1000):
        part = [a[:n_seg] for a in cols]
        for start in (x0, -0.0):
            want = _stacked_flow_path(np.asarray(start) + 0.0, z + 0.0, params, *part)
            calls.clear()
            got = model.flow_paths(start, z, params.h, params.c, *part)
            assert bool(calls) == (n_seg == 1000)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def test_flow_path_and_exact_flow_differ_from_a_signed_zero(lockstep):
    # from -0.0 the scalar recursion and exact_flow return zeros of opposite
    # sign, which is why flow_paths reads a -0.0 start or set-point as 0.0;
    # from 0.0 all three agree
    from zpolicy.model import flow_paths
    params, theta, ci, dt, wind = _path_columns("REF", 400, seed=3)
    dt[:5], wind[:5] = 0.0, 0
    z = np.array([0.0, 70.0])
    for x0, agree in ((-0.0, False), (0.0, True)):
        want = [np.full(2, x0)]
        for k in range(len(dt)):
            want.append(exact_flow(want[-1], z, theta[k], params.h, params.c, ci[k], dt[k],
                                   wind[k]))
        scalar = _stacked_flow_path(x0, z, params, theta, ci, dt, wind)
        assert same_bits(scalar, np.array(want)) == agree
    assert same_bits(flow_paths(0.0, z, params.h, params.c, theta, ci, dt, wind), scalar)
