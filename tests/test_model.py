import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpolicy import LoadParams, advance_temperatures, build_environment
from zpolicy.errors import NonPositiveRate
from zpolicy.model import exact_flow, power_split


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


def test_wind_cooling_rates(ref_params):
    rates = ref_params.wind_cooling_rates(3)
    assert rates[0] == 0.0
    assert rates[-1] == ref_params.c
    assert np.allclose(rates, [0.0, 0.55, 1.1])
    assert ref_params.wind_cooling_rates(1).tolist() == [0.0]


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
