import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpolicy import (
    LoadParams, LoadState, advance_temperatures, build_environment,
    power_draw, step_ensemble, z_policy_drift,
)
from zpolicy.errors import NonPositiveRate


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


def test_wind_cooling_rates(ref_params):
    rates = ref_params.wind_cooling_rates(3)
    assert rates[0] == 0.0
    assert rates[-1] == ref_params.c
    assert np.allclose(rates, [0.0, 0.55, 1.1])
    assert ref_params.wind_cooling_rates(1).tolist() == [0.0]


def test_drift_interior_heating(ref_params):
    s = LoadState(temperature=50.0, set_point=80.0)
    assert z_policy_drift(s, wind=0, comfort=1, params=ref_params) == ref_params.h


def test_drift_parked_at_set_point(ref_params):
    s = LoadState(temperature=80.0, set_point=80.0)
    assert z_policy_drift(s, wind=0, comfort=1, params=ref_params) == 0.0


def test_drift_forced_cooling_any_wind():
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(70.0, 100.0))
    s = LoadState(temperature=90.0, set_point=95.0)
    for wind in (0, 1):
        assert z_policy_drift(s, wind=wind, comfort=0, params=params) == -params.c


def test_power_held_at_floor_under_wind(ref_params):
    d = power_draw(LoadState(0.0, 80.0), wind=1, comfort=1, params=ref_params)
    assert d.wind_power == ref_params.h
    assert d.grid_power == 0.0


def test_power_parked(ref_params):
    d = power_draw(LoadState(80.0, 80.0), wind=0, comfort=1, params=ref_params)
    assert (d.wind_power, d.grid_power) == (0.0, ref_params.h)


def test_power_violation_cooling():
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(70.0, 100.0))
    d = power_draw(LoadState(90.0, 95.0), wind=0, comfort=0, params=params)
    assert (d.wind_power, d.grid_power) == (0.0, params.h + params.c)


def test_power_intermediate_wind_supplement():
    params = LoadParams(h=1.0, c=1.0, comfort_levels=(50.0, 100.0))
    d = power_draw(LoadState(60.0, 90.0), wind=1, comfort=0, params=params,
                   n_wind=3)
    # state 1 of 3 supports c/2; the grid supplies the other c/2
    assert d.wind_power == pytest.approx(params.h + 0.5)
    assert d.grid_power == pytest.approx(0.5)


def test_binary_grid_power_levels(ref_params):
    h, c = ref_params.h, ref_params.c
    seen = set()
    for x in (0.0, 20.0, 50.0, 60.0, 80.0, 95.0):
        for wind in (0, 1):
            for comfort in (0, 1):
                d = power_draw(LoadState(x, 80.0), wind, comfort, ref_params)
                seen.add(round(d.grid_power, 12))
    assert seen <= {0.0, h, h + c}


def test_step_absorbing_floor_under_wind(ref_params):
    states = [LoadState(0.0, z) for z in (30.0, 60.0, 90.0)]
    out = step_ensemble(states, wind=1, comfort=1, dt=5.0, params=ref_params)
    assert all(s.temperature == 0.0 for s in out)


def test_step_parks_exactly(ref_params):
    out = step_ensemble([LoadState(10.0, 80.0)], wind=0, comfort=1, dt=100.0,
                        params=ref_params)
    assert out[0].temperature == 80.0


def test_step_comfort_drop_two_segment():
    # hand-integrated: load 2 cools at c from 70 until Theta_1 = 65, then parks
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(65.0, 100.0))
    states = [LoadState(60.0, 60.0), LoadState(70.0, 70.0)]
    out = step_ensemble(states, wind=0, comfort=0, dt=10.0, params=params)
    assert out[0].temperature == 60.0
    assert out[1].temperature == pytest.approx(65.0, abs=1e-12)
    # partway through, the violating load is still cooling at rate c
    mid = step_ensemble(states, wind=0, comfort=0, dt=2.0, params=params)
    assert mid[1].temperature == pytest.approx(70.0 - 1.1 * 2.0)


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
