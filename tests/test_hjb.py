import numpy as np
import pytest

from zpolicy import (
    LoadParams, build_environment, classify_policy, coolest_first_heuristic,
    simulate_policy, solve_hjb,
)
from zpolicy.errors import UnstableScheme


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
    nx = len(x)
    n_env = env.n_states
    q = env.generator
    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    cap = h + c

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
                    remaining = np.full((nx, nx), w_pow)
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
], ids=["ref", "c3", "w3_asymmetric", "wind_power_0.7", "wind_power_3.0",
        "forced_power_3.5"])
def test_matches_per_state_reference_exactly(env, params, kwargs):
    args = {"horizon": 12.0, "grid_step": 2.5, "time_step": 0.5, **kwargs}
    values, policy = solve_hjb(env, params, **args)
    ref_values, ref_wind, ref_grid = _reference_solve_hjb(env, params, **args)
    assert np.array_equal(values.values, ref_values)
    assert np.array_equal(policy.wind, ref_wind)
    assert np.array_equal(policy.grid, ref_grid)


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
    labels = classify_policy(pol, vals, ref_params, ref_env)
    assert (labels == 1).sum() > 0
    assert (labels == -1).sum() > 0


def test_classify_neutral_on_diagonal(ref_env, ref_params):
    vals, pol = _solve_small(ref_env, ref_params)
    labels = classify_policy(pol, vals, ref_params, ref_env)
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
    draws = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                    activation_threshold=50.0,
                                    wind_power=100.0)
    for d in draws:
        assert d.wind_power == ref_params.h + ref_params.c
        assert d.grid_power == 0.0


def test_heuristic_coolest_first_above_threshold(ref_params):
    x = np.array([40.0, 90.0])
    draws = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                    activation_threshold=50.0,
                                    wind_power=ref_params.h + ref_params.c)
    assert draws[0].wind_power == ref_params.h + ref_params.c
    assert draws[1].wind_power == 0.0


def test_heuristic_hottest_first_below_threshold(ref_params):
    x = np.array([10.0, 30.0])
    draws = coolest_first_heuristic(x, wind=1, comfort=1, params=ref_params,
                                    activation_threshold=50.0,
                                    wind_power=ref_params.h + ref_params.c)
    assert draws[1].wind_power == ref_params.h + ref_params.c
    assert draws[0].wind_power == 0.0


def test_heuristic_caps_peak_after_downswitch(ref_env, ref_params):
    # staggering from the coolest-first rule lowers the worst-case total
    # grid draw after comfort down-switches relative to hottest-first
    def synchronized(x, wind, comfort, params):
        return coolest_first_heuristic(x, wind, comfort, params,
                                       activation_threshold=np.inf,
                                       wind_power=params.h + params.c)

    def desync(x, wind, comfort, params):
        return coolest_first_heuristic(x, wind, comfort, params,
                                       activation_threshold=40.0,
                                       wind_power=params.h + params.c)

    runs = {}
    for name, fn in (("sync", synchronized), ("desync", desync)):
        runs[name] = simulate_policy(fn, ref_env, ref_params, n_loads=10,
                                     horizon_jumps=3000, seed=12, dt_max=0.1)
    assert runs["desync"]["peak_grid_power"] <= runs["sync"]["peak_grid_power"]
