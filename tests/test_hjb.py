import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpolicy import (
    LoadParams, build_environment, classify_policy, coolest_first_heuristic,
    solve_hjb,
)
from zpolicy.errors import UnstableScheme
from zpolicy.hjb import _upwind

import reference_costs
from conftest import CHAIN_SIZES, chain_instance, same_bits

# floats whose products and sums stay finite, with both signed zeros drawn often
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))


def _solve_small(ref_env, ref_params, horizon=30.0, grid_step=4.0,
                 time_step=0.9):
    return solve_hjb(ref_env, ref_params, horizon=horizon,
                     grid_step=grid_step, time_step=time_step)


def test_stability_precondition(ref_env, ref_params):
    with pytest.raises(UnstableScheme):
        solve_hjb(ref_env, ref_params, horizon=10.0, grid_step=1.0,
                  time_step=1.0)


@pytest.mark.parametrize("bad", [
    {"horizon": 0.0}, {"horizon": -1.0}, {"horizon": float("inf")},
    {"grid_step": 0.0}, {"grid_step": -4.0}, {"grid_step": float("nan")},
    {"grid_step": 150.0},
    {"time_step": 0.0}, {"time_step": -1.0}, {"time_step": float("nan")},
    {"wind_power": -1.0}, {"wind_power": float("nan")}, {"forced_power": -1.0},
    {"wind_power": -(1.0 + 1.1), "time_step": None},   # h + c + W = 0: no default step
])
def test_bad_inputs_raise_value_error(ref_env, ref_params, bad):
    args = {"horizon": 10.0, "grid_step": 4.0, "time_step": 0.9, **bad}
    with pytest.raises(ValueError):
        solve_hjb(ref_env, ref_params, **args)


def _reference_gradients(v, dx):
    fwd1 = np.empty_like(v)
    fwd1[:-1, :] = (v[1:, :] - v[:-1, :]) / dx
    fwd1[-1, :] = fwd1[-2, :]
    bwd1 = np.empty_like(v)
    bwd1[1:, :] = (v[1:, :] - v[:-1, :]) / dx
    bwd1[0, :] = bwd1[1, :]
    fwd2 = np.empty_like(v)
    fwd2[:, :-1] = (v[:, 1:] - v[:, :-1]) / dx
    fwd2[:, -1] = fwd2[:, -2]
    bwd2 = np.empty_like(v)
    bwd2[:, 1:] = (v[:, 1:] - v[:, :-1]) / dx
    bwd2[:, 0] = bwd2[:, 1]
    return fwd1, bwd1, fwd2, bwd2


def _reference_solve_hjb(env, params, horizon, grid_step, time_step,
                         wind_power=None, forced_power=None):
    """The backward induction written per environment state, every
    candidate rebuilt from scratch at every step: (values, wind, grid)."""
    h, c = params.h, params.c
    w_pow = wind_power if wind_power is not None else h + c
    m_pow = forced_power if forced_power is not None else h + c
    top = params.theta_max
    x = np.arange(0.0, top + 0.5 * grid_step, grid_step)
    x = x[x <= top + 1e-12]
    nx = len(x)
    n_env = env.n_states
    q = env.generator
    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    cap = h + c
    share = params.wind_cooling_rates(env.n_wind) / c

    def step(v_next):
        v_new = np.empty_like(v_next)
        wind_split = np.zeros((n_env, nx, nx, 2))
        grid_power = np.zeros((n_env, nx, nx, 2))
        for e in range(n_env):
            iw, jc = env.split_index(e)
            theta = params.comfort_levels[jc]
            ve = v_next[e]
            f1p, f1m, f2p, f2m = _reference_gradients(ve, grid_step)
            forced1 = x1 > theta + 1e-12
            forced2 = x2 > theta + 1e-12
            at_top1 = np.isclose(x1, theta) | np.isclose(x1, top)
            at_top2 = np.isclose(x2, theta) | np.isclose(x2, top)
            at_floor1 = x1 <= 1e-12
            at_floor2 = x2 <= 1e-12
            best = None
            for order in ([(0, 1), (1, 0)] if iw >= 1 else [(0, 1)]):
                pw = [np.zeros((nx, nx)), np.zeros((nx, nx))]
                if iw >= 1:
                    remaining = np.full((nx, nx), w_pow * share[iw])
                    for li in order:
                        cap_i = np.where([at_floor1, at_floor2][li], h, cap)
                        take = np.minimum(remaining, cap_i)
                        pw[li] = take
                        remaining = remaining - take
                base = [np.where(forced1, np.clip(m_pow - pw[0], 0.0, None), 0.0),
                        np.where(forced2, np.clip(m_pow - pw[1], 0.0, None), 0.0)]
                lb = [np.where(at_top1 & ~forced1, np.clip(h - pw[0], 0.0, None), 0.0),
                      np.where(at_top2 & ~forced2, np.clip(h - pw[1], 0.0, None), 0.0)]
                g_base = [np.where(forced1, base[0], lb[0]),
                          np.where(forced2, base[1], lb[1])]
                f_total = g_base[0] + g_base[1]
                candidates = [(np.zeros((nx, nx)), np.zeros((nx, nx)))]
                for li, grad_m in ((0, f1m), (1, f2m)):
                    room = np.clip(cap - pw[li] - g_base[li], 0.0, None)
                    room = np.where([forced1, forced2][li], 0.0, room)
                    room = np.where([at_floor1, at_floor2][li],
                                    np.clip(h - pw[li] - g_base[li], 0.0, None), room)
                    extra = np.clip(0.5 * grad_m - f_total, 0.0, room)
                    g1 = extra if li == 0 else np.zeros((nx, nx))
                    g2 = extra if li == 1 else np.zeros((nx, nx))
                    candidates.append((g1, g2))
                for (e1, e2) in candidates:
                    g1 = g_base[0] + e1
                    g2 = g_base[1] + e2
                    p1 = pw[0] + g1
                    p2 = pw[1] + g2
                    p1 = np.where(at_floor1, np.minimum(p1, h), p1)
                    p2 = np.where(at_floor2, np.minimum(p2, h), p2)
                    f1 = h - p1
                    f2 = h - p2
                    f1 = np.where(at_top1 & (f1 > 0) & ~forced1, 0.0, f1)
                    f2 = np.where(at_top2 & (f2 > 0) & ~forced2, 0.0, f2)
                    ham = (g1 + g2) ** 2 \
                        + np.maximum(f1, 0.0) * f1p + np.minimum(f1, 0.0) * f1m \
                        + np.maximum(f2, 0.0) * f2p + np.minimum(f2, 0.0) * f2m
                    if best is None:
                        best = (ham.copy(), pw[0].copy(), pw[1].copy(), g1.copy(), g2.copy())
                    else:
                        better = ham < best[0]
                        for arr, new in zip(best, (ham, pw[0], pw[1], g1, g2)):
                            np.copyto(arr, new, where=better)
            ham_best, pw1, pw2, g1b, g2b = best
            coupling = np.zeros((nx, nx))
            for e2 in range(n_env):
                if e2 != e:
                    coupling += q[e2, e] * (v_next[e2] - ve)
            v_new[e] = ve + time_step * (ham_best + coupling)
            wind_split[e, :, :, 0] = pw1
            wind_split[e, :, :, 1] = pw2
            grid_power[e, :, :, 0] = g1b
            grid_power[e, :, :, 1] = g2b
        return v_new, wind_split, grid_power

    v = np.zeros((n_env, nx, nx))
    for _ in range(int(np.ceil(horizon / time_step))):
        v, wind_split, grid_power = step(v)
    return v, wind_split, grid_power


_REF_PARAMS = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
_REF_ENV = build_environment((0.04, 0.04), (0.02, 0.02))


@pytest.mark.parametrize("env, params, kwargs", [
    (_REF_ENV, _REF_PARAMS, {}),
    (build_environment((0.04, 0.04), [(0.02, 0.02), (0.02, 0.02)]),
     LoadParams(h=1.0, c=1.1, comfort_levels=(40.0, 70.0, 100.0)), {}),
    (build_environment([(0.04, 0.07), (0.03, 0.05)], (0.02, 0.03)), _REF_PARAMS, {}),
    (_REF_ENV, _REF_PARAMS, {"wind_power": 0.7}),
    (_REF_ENV, _REF_PARAMS, {"wind_power": 3.0, "time_step": 0.4}),
    (_REF_ENV, _REF_PARAMS, {"forced_power": 3.5}),
    # the benchmark's grid: every extra-power box and cap row at full size
    (_REF_ENV, _REF_PARAMS, {"horizon": 1.0, "grid_step": 1.0, "time_step": 0.2}),
    # no wind-on orders, so every box comes from comfort alone
    (build_environment([], (0.02, 0.02)), _REF_PARAMS, {}),
    # the grid misses both comfort levels, so no cell has a top cap
    (_REF_ENV, _REF_PARAMS, {"grid_step": 3.0}),
    # with h = 0.9, wind 0.3 plus the room left for grid power rounds above
    # h on the floor (a low comfort level and a longer horizon make V steep
    # enough there to use all the room), and wind 0.19 plus the holding
    # power rounds below h at the top: there the caps bind
    (_REF_ENV, LoadParams(h=0.9, c=1.1, comfort_levels=(2.5, 100.0)),
     {"wind_power": 0.3, "horizon": 20.0}),
    (_REF_ENV, LoadParams(h=0.9, c=1.1, comfort_levels=(50.0, 100.0)), {"wind_power": 0.19}),
    # no wind and no forced power: many Hamiltonian cells are all +0.0
    (_REF_ENV, _REF_PARAMS, {"wind_power": 0.0}),
    (_REF_ENV, _REF_PARAMS, {"forced_power": 0.0}),
    (build_environment((0.04, 0.04), []), LoadParams(h=1.0, c=1.1, comfort_levels=(100.0,)), {}),
    # one environment state: no coupling rate at all
    (build_environment([], []), LoadParams(h=1.0, c=1.1, comfort_levels=(100.0,)), {}),
    # the fewest nodes: every axis-2 difference is an edge column or next to one
    (_REF_ENV, _REF_PARAMS, {"grid_step": 100.0}),
    (_REF_ENV, _REF_PARAMS, {"grid_step": 50.0}),
    # the largest table: three comfort levels at full grid
    (build_environment((0.04, 0.04), [(0.02, 0.02), (0.02, 0.02)]),
     LoadParams(h=1.0, c=1.1, comfort_levels=(40.0, 70.0, 100.0)),
     {"horizon": 2.0, "grid_step": 1.0, "time_step": 0.2}),
], ids=["ref", "c3", "w3_asymmetric", "wind_power_0.7", "wind_power_3.0",
        "forced_power_3.5", "bench_grid", "one_wind_state", "grid_misses_comfort",
        "floor_cap_binds", "top_cap_binds", "wind_power_0", "forced_power_0",
        "one_comfort_level", "single_state", "two_nodes", "three_nodes", "c3_grid_1"])
def test_matches_per_state_reference_exactly(env, params, kwargs):
    args = {"horizon": 12.0, "grid_step": 2.5, "time_step": 0.5, **kwargs}
    values, policy = solve_hjb(env, params, **args)
    ref_values, ref_wind, ref_grid = _reference_solve_hjb(env, params, **args)
    assert np.array_equal(values.values, ref_values)
    assert np.array_equal(policy.wind, ref_wind)
    assert np.array_equal(policy.grid, ref_grid)


def test_rate_bracket_narrows_as_the_horizon_grows(ref_env, ref_params):
    # the last step's rate dV/dt tends to the ergodic cost in every cell,
    # so each longer horizon's (min, max) lies within the shorter one's
    brackets = [_solve_small(ref_env, ref_params, horizon=t, time_step=0.8)[0].rate_bracket
                for t in (40.0, 80.0, 160.0)]
    for (lo, hi), (inner_lo, inner_hi) in zip(brackets, brackets[1:]):
        assert lo < inner_lo <= inner_hi < hi


@pytest.mark.parametrize("grid_step", [1.0, 2.5, 3.0, 10.0 / 3.0, 3.5, 6.0, 0.7, 60.0, 100.0])
def test_grid_covers_zero_to_top_comfort_level(ref_env, ref_params, grid_step):
    # the multiples of grid_step up to Theta_C and no further; a grid that
    # divides Theta_C keeps the bits of np.arange
    top = ref_params.theta_max
    values, policy = solve_hjb(ref_env, ref_params, horizon=2.0, grid_step=grid_step)
    x = values.x
    assert x[0] == 0.0 and x[-1] <= top + 1e-12 < x[-1] + grid_step
    assert same_bits(x, np.arange(len(x)) * grid_step)
    assert same_bits(policy.x, x) and values.values.shape[1:] == (len(x), len(x))
    if (top / grid_step).is_integer():
        assert same_bits(x, np.arange(0.0, top + 0.5 * grid_step, grid_step))
    # in the top comfort state nothing lies above the comfort level, so no
    # cell is forced and none draws the full power h + c from the grid
    for e in range(ref_env.n_states):
        if ref_env.split_index(e)[1] == ref_env.n_comfort - 1:
            assert policy.grid[e].max() < ref_params.h + ref_params.c


@given(st.lists(st.tuples(_SIGNED, _SIGNED, _SIGNED, _SIGNED), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_upwind_term_is_the_signed_products_bit_for_bit(cells):
    # the fold behind the solver's single upwind term: with a partial sum
    # that is not -0.0, one of max(f, 0) * a and min(f, 0) * b is a signed
    # zero, and adding a signed zero leaves the sum as it is
    f, a, b, ps = np.array(cells).T
    ps = np.abs(ps)
    two_products = (ps + np.maximum(f, 0.0) * a) + np.minimum(f, 0.0) * b
    for up in (None, f > 0):
        assert same_bits(two_products, ps + _upwind(f, a, b, np.empty_like(f), up))


def test_wind_allocation_within_each_states_budget(env_w3, ref_params):
    # wind state i shares wind_power * i/(W-1), the model's cooling share
    _, policy = solve_hjb(env_w3, ref_params, horizon=12.0, grid_step=2.5, time_step=0.5)
    budget = policy.wind_power * ref_params.wind_cooling_rates(env_w3.n_wind) / ref_params.c
    total = policy.wind.sum(axis=-1)
    for e in range(env_w3.n_states):
        assert total[e].max() <= budget[env_w3.split_index(e)[0]]
    half = [e for e in range(env_w3.n_states) if env_w3.split_index(e)[0] == 1]
    assert 0.0 < total[half].max() <= 0.5 * policy.wind_power


def test_single_backward_step_is_stage_cost(ref_env, ref_params):
    # terminal V = 0: after one step only forced actions contribute
    h, c = ref_params.h, ref_params.c
    dt = 0.9
    vals, _ = solve_hjb(ref_env, ref_params, horizon=dt, grid_step=4.0,
                        time_step=dt)
    x = vals.x
    for e, (iw, jc) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        theta = ref_params.comfort_levels[jc]
        v = vals.values[e]
        forced1 = x[:, None] > theta + 1e-12
        forced2 = x[None, :] > theta + 1e-12
        if iw == 1:
            # wind covers one forced load in full; two forced loads share it
            expected_11 = dt * (2 * (h + c) - (h + c)) ** 2
            both = forced1 & forced2
            if both.any():
                assert np.allclose(v[both], expected_11)
            one = forced1 ^ forced2
            if one.any():
                assert np.allclose(v[one], 0.0)
        else:
            both = forced1 & forced2
            if both.any():
                assert np.allclose(v[both], dt * (2 * (h + c)) ** 2)
        free = ~forced1 & ~forced2 & (x[:, None] > 0) & (x[None, :] > 0) \
            & ~np.isclose(x[:, None], theta) & ~np.isclose(x[None, :], theta) \
            & (x[:, None] < 100.0) & (x[None, :] < 100.0)
        assert np.allclose(v[free], 0.0)


def test_value_symmetric(ref_env, ref_params):
    vals, _ = _solve_small(ref_env, ref_params)
    for e in range(4):
        assert np.abs(vals.values[e] - vals.values[e].T).max() <= 1e-10


def test_value_monotone_nonnegative(ref_env, ref_params):
    vals, _ = _solve_small(ref_env, ref_params)
    v = vals.values
    assert v.min() >= -1e-10
    assert np.all(np.diff(v, axis=1) >= -1e-8)
    assert np.all(np.diff(v, axis=2) >= -1e-8)


def test_wind_bang_bang_off_tie_and_boundary(ref_env, ref_params):
    vals, pol = _solve_small(ref_env, ref_params, horizon=40.0, grid_step=2.0,
                             time_step=0.45)
    x = pol.x
    interior = slice(1, len(x) - 1)
    for e in (2, 3):
        w1 = pol.wind[e, interior, interior, 0]
        w2 = pol.wind[e, interior, interior, 1]
        v = vals.values[e][interior, interior]
        grad_gap = np.abs(np.gradient(v, axis=0) - np.gradient(v, axis=1))
        tie = grad_gap <= 0.05 * max(1.0, np.abs(v).max() / len(x))
        split = np.minimum(w1, w2)
        assert np.all(split[~tie] <= 1e-9)


def test_desynchronizing_region_wind_to_cooler(ref_env, ref_params):
    vals, pol = _solve_small(ref_env, ref_params, horizon=60.0, grid_step=2.0,
                             time_step=0.45)
    x = pol.x
    x1 = x[:, None] * np.ones((1, len(x)))
    x2 = np.ones((len(x), 1)) * x[None, :]
    found = False
    for e in (2, 3):
        w1 = pol.wind[e, :, :, 0]
        w2 = pol.wind[e, :, :, 1]
        cooler_gets = ((x1 < x2) & (w1 > w2 + 1e-9)) | \
            ((x2 < x1) & (w2 > w1 + 1e-9))
        if (cooler_gets & (np.abs(x1 - x2) > 2.0)).sum() > 10:
            found = True
    assert found
    labels = classify_policy(pol, ref_params)
    assert (labels == 1).sum() > 0
    assert (labels == -1).sum() > 0


def test_classify_neutral_on_diagonal(ref_env, ref_params):
    vals, pol = _solve_small(ref_env, ref_params)
    labels = classify_policy(pol, ref_params)
    for e in range(4):
        assert np.all(np.diag(labels[e]) == 0)


def test_self_convergence_under_grid_halving(ref_env, ref_params):
    v_list = []
    for gs, dt in ((4.0, 0.5), (2.0, 0.25), (1.0, 0.125)):
        vals, _ = solve_hjb(ref_env, ref_params, horizon=30.0, grid_step=gs,
                            time_step=dt)
        v_list.append(vals.values)
    d_coarse = max(np.abs(v_list[0][e] - v_list[1][e][::2, ::2]).max()
                   for e in range(4))
    d_fine = max(np.abs(v_list[1][e] - v_list[2][e][::2, ::2]).max()
                 for e in range(4))
    assert d_fine < d_coarse


def test_heuristic_inactive_with_ample_wind(ref_params):
    x = np.array([30.0, 60.0, 90.0])
    wind_alloc, grid_alloc = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                                     activation_threshold=50.0, n_wind=2,
                                                     wind_power=100.0)
    assert np.all(wind_alloc == ref_params.h + ref_params.c)
    assert np.all(grid_alloc == 0.0)


def test_heuristic_coolest_first_above_threshold(ref_params):
    x = np.array([40.0, 90.0])
    wind_alloc, _ = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                            activation_threshold=50.0, n_wind=2,
                                            wind_power=ref_params.h + ref_params.c)
    assert wind_alloc[0] == ref_params.h + ref_params.c
    assert wind_alloc[1] == 0.0


def test_heuristic_hottest_first_below_threshold(ref_params):
    x = np.array([10.0, 30.0])
    wind_alloc, _ = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                            activation_threshold=50.0, n_wind=2,
                                            wind_power=ref_params.h + ref_params.c)
    assert wind_alloc[1] == ref_params.h + ref_params.c
    assert wind_alloc[0] == 0.0


def test_heuristic_budget_per_wind_state_on_w3(ref_params):
    # off / half / full wind: state i gets the share i/(W-1) of the budget,
    # all of it to the coolest load above the floor when the mean runs hot
    x = np.array([60.0, 90.0])
    full = ref_params.h + ref_params.c
    share = ref_params.wind_cooling_rates(3) / ref_params.c
    for wind, budget in ((0, 0.0), (1, full * share[1]), (2, full)):
        wind_alloc, _ = coolest_first_heuristic(x, wind=wind, comfort=1, params=ref_params,
                                                activation_threshold=50.0, n_wind=3)
        assert wind_alloc.tolist() == [budget, 0.0]
    assert full * share[1] == pytest.approx(0.5 * full)


def _reference_coolest_first(x, wind, comfort, params, activation_threshold,
                             wind_power=None, *, n_wind):
    """The coolest-first rule as written before the HJB's wind split served it."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    h, c = params.h, params.c
    theta = params.comfort_levels[comfort]
    share = params.wind_cooling_rates(n_wind)[wind] / c
    w_avail = (wind_power if wind_power is not None else h + c) * share
    need = np.where(x > 1e-12, h + c, h)
    wind_alloc = np.zeros(n)
    if w_avail >= need.sum():
        wind_alloc[:] = need
    elif w_avail > 0:
        if x.mean() > activation_threshold:
            order = np.argsort(x, kind="stable")
        else:
            order = np.argsort(-x, kind="stable")
        rem = w_avail
        for i in order:
            take = min(rem, need[i])
            wind_alloc[i] = take
            rem -= take
            if rem <= 0:
                break
    grid_alloc = np.where(x > theta + 1e-12, np.clip(h + c - wind_alloc, 0.0, None), 0.0)
    return wind_alloc, grid_alloc


def test_heuristic_matches_frozen_rule_bit_for_bit(ref_params):
    # 1-7 loads, some at the floor and at a comfort level, 1-4 wind states,
    # and full-wind budgets of 0, exactly the loads' need, or random
    rng = np.random.default_rng(22)
    h, c = ref_params.h, ref_params.c
    for _ in range(3000):
        n, n_wind = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        x = rng.uniform(0.0, 110.0, n)
        pick = rng.random(n)
        x[pick < 0.2] = 0.0
        x[(pick >= 0.2) & (pick < 0.35)] = 100.0
        x[(pick >= 0.35) & (pick < 0.45)] = 50.0
        wind = int(rng.integers(n_wind))
        share = ref_params.wind_cooling_rates(n_wind)[wind] / c
        need = np.where(x > 1e-12, h + c, h).sum()
        budget = [0.0, need / share if share > 0 else None, None,
                  float(rng.uniform(0.0, 10.0))][int(rng.integers(4))]
        args = (x, wind, int(rng.integers(2)), ref_params, float(rng.uniform(0.0, 100.0)), budget)
        got = coolest_first_heuristic(*args, n_wind=n_wind)
        want = _reference_coolest_first(*args, n_wind=n_wind)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and same_bits(a, b)


@pytest.mark.parametrize("n_wind, n_comfort",
                         [(w, c) for (w, c) in CHAIN_SIZES if w <= 3 and c <= 3])
def test_labels_match_reference_on_every_chain_size(n_wind, n_comfort):
    # one array expression over every environment state gives the frozen
    # per-state loop's labels, dtype included
    env, params = chain_instance(n_wind, n_comfort)
    _, policy = solve_hjb(env, params, horizon=2.0, grid_step=10.0 / 3.0)
    labels = classify_policy(policy, params)
    expected = reference_costs.classify_policy(policy, params, env)
    assert labels.dtype == expected.dtype
    assert labels.shape == expected.shape == (env.n_states, len(policy.x), len(policy.x))
    assert np.array_equal(labels, expected)
