import numpy as np
import pytest
from scipy.optimize import minimize

from zpolicy import (
    ThresholdDistribution, continuum_cost, costate, default_z_grid,
    euler_lagrange, fixed_point, isotonic_fit, project, project_detailed,
    sensitivity_curves,
)
from zpolicy.costs import SensitivityCurves

from conftest import GAMMA_REF, random_step_distribution


def _qp_isotonic(y, w):
    """Brute-force bounded weighted isotonic regression oracle."""
    n = len(y)
    cons = [{"type": "ineq", "fun": (lambda x, i=i: x[i + 1] - x[i])}
            for i in range(n - 1)]
    res = minimize(lambda x: float(np.sum(w * (x - y) ** 2)),
                   x0=np.clip(np.sort(y), 0, 1),
                   jac=lambda x: 2 * w * (x - y),
                   bounds=[(0.0, 1.0)] * n, constraints=cons,
                   method="SLSQP", options={"maxiter": 400, "ftol": 1e-14})
    return res.x


def test_pava_matches_qp_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = np.clip(rng.normal(0.5, 0.3, 60), 0, 1)
        w = rng.uniform(0.2, 2.0, 60)
        fit, _ = isotonic_fit(y, w)
        oracle = _qp_isotonic(y, w)
        obj_fit = float(np.sum(w * (fit - y) ** 2))
        obj_oracle = float(np.sum(w * (oracle - y) ** 2))
        assert obj_fit <= obj_oracle + 1e-8
        assert np.abs(fit - oracle).max() < 1e-4


def test_pava_idempotent():
    rng = np.random.default_rng(8)
    y = rng.uniform(0, 1, 200)
    w = rng.uniform(0.1, 3.0, 200)
    fit, _ = isotonic_fit(y, w)
    fit2, _ = isotonic_fit(fit, w)
    assert np.array_equal(fit, fit2)


def _synthetic_curves(ref_env, ref_params, d1, d2, n=101):
    zg = np.linspace(0.5, 100.0, n)
    zero = np.zeros(n)
    h, c = ref_params.h, ref_params.c
    w = h * h * d1 + c * c * d2
    return SensitivityCurves(
        z_grid=zg, phi=zero, phi_prime=zero, d1=d1, d_theta=np.array([d2, zero]),
        d_hat=zero, d_hat_frontier=np.zeros((0, n)), w=w,
        delta_z=zero, delta_theta=np.zeros((2, n)), tail_wind_off=zero,
        tail_intermediate=np.zeros((0, n)), env=ref_env, params=ref_params)


def test_euler_lagrange_zero_where_d2_vanishes(ref_curves):
    # gamma = 0 and D2 = 0 below Theta_1: the candidate vanishes there
    u_el = euler_lagrange(ref_curves, 0.0)
    below = ref_curves.z_grid < 50.0
    assert np.abs(u_el[below]).max() <= 1e-12


def test_euler_lagrange_clamps_at_one(ref_env, ref_params):
    n = 101
    curves = _synthetic_curves(ref_env, ref_params,
                               d1=np.zeros(n), d2=np.full(n, 1e-3))
    raw = euler_lagrange(curves, 0.0, clamp=False)
    c, h = ref_params.c, ref_params.h
    assert np.allclose(raw, (c + h) / c)
    assert np.all(euler_lagrange(curves, 0.0) == 1.0)


def test_euler_lagrange_reference_motivating_failure(ref_curves):
    # the informal stationary point is neither monotone nor boundary-correct
    raw = euler_lagrange(ref_curves, 0.0, clamp=False)
    assert abs(raw[-1] - 1.0) > 0.1
    above = ref_curves.z_grid > 50.0
    assert np.any(np.diff(raw[above]) < -1e-6)


def test_project_feasible_input_untouched(ref_curves):
    zg = ref_curves.z_grid
    u_el = np.clip((zg - 20.0) / 80.0, 0.0, 1.0)
    res = project_detailed(u_el, ref_curves)
    assert np.abs(res.grid_values - u_el).max() <= 1e-12
    assert res.grid_values[-1] == 1.0 or \
        any(loc == 100.0 for loc, _l, _r in res.distribution.jumps)


def test_project_constant_half(ref_curves):
    u_el = np.full(len(ref_curves.z_grid), 0.5)
    res = project_detailed(u_el, ref_curves)
    assert np.all(res.grid_values == 0.5)
    locs = [j[0] for j in res.distribution.jumps]
    assert 0.0 in locs and 100.0 in locs


def test_project_single_hump_equal_area(ref_curves):
    u_el = euler_lagrange(ref_curves, 0.0)
    res = project_detailed(u_el, ref_curves)
    assert len(res.pooled_intervals) >= 1
    assert np.abs(res.equal_area_residuals).max() <= 1e-6


def test_projection_idempotent(ref_curves):
    u_el = euler_lagrange(ref_curves, 0.0)
    first = project_detailed(u_el, ref_curves).grid_values
    second = project_detailed(first, ref_curves).grid_values
    assert np.array_equal(first, second)


def test_pooling_only_where_needed(ref_curves):
    # on maximal strictly increasing stretches of the candidate, the
    # projection tracks it pointwise
    u_el = euler_lagrange(ref_curves, 0.0)
    res = project_detailed(u_el, ref_curves)
    singles = [b0 for (b0, b1) in res.blocks if b1 - b0 == 1]
    assert singles
    assert np.abs(res.grid_values[singles] - u_el[singles]).max() <= 1e-12


def test_projection_beats_random_step_functions(ref_curves):
    u_el = euler_lagrange(ref_curves, GAMMA_REF)
    u_star = project(u_el, ref_curves)
    j_star = continuum_cost(u_star, ref_curves, GAMMA_REF).total
    rng = np.random.default_rng(12)
    for _ in range(300):
        u = random_step_distribution(rng)
        assert continuum_cost(u, ref_curves, GAMMA_REF).total >= j_star - 1e-9


def test_projection_matches_qp_on_curve_weights(ref_env, ref_params):
    # coarse grid so the QP oracle stays well conditioned
    curves = sensitivity_curves(ref_env, ref_params,
                                z_grid=default_z_grid(ref_params, step=100 / 60))
    from zpolicy.variational import _cell_weights
    for gamma in (0.0, GAMMA_REF):
        u_el = euler_lagrange(curves, gamma)
        fit = project_detailed(u_el, curves).grid_values
        w = _cell_weights(curves.z_grid, curves.w)
        oracle = _qp_isotonic(u_el, np.clip(w, 1e-12, None))
        obj = float(np.sum(w * (fit - u_el) ** 2))
        obj_o = float(np.sum(w * (oracle - u_el) ** 2))
        assert obj <= obj_o + 1e-6


def test_costate_diagnostics(ref_curves):
    u_el = euler_lagrange(ref_curves, 0.0)
    u_star = project_detailed(u_el, ref_curves).grid_values
    lam = costate(u_star, u_el, ref_curves)
    assert lam.min() >= -1e-8
    assert abs(lam[-1]) <= 1e-6


def test_fixed_point_without_middle_levels_is_the_projection(ref_env, ref_params, ref_curves):
    fp = fixed_point(ref_env, ref_params, GAMMA_REF, curves=ref_curves)
    assert fp.iterations == 0
    assert fp.trace == []
    direct = project_detailed(euler_lagrange(ref_curves, GAMMA_REF), ref_curves)
    assert np.array_equal(fp.projection.grid_values, direct.grid_values)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_fixed_point_rejects_bad_tolerance(env3, params3, curves3, tol):
    with pytest.raises(ValueError, match="tol"):
        fixed_point(env3, params3, GAMMA_REF, tol=tol, curves=curves3)


def test_fixed_point_bracket_halving(env3, params3, curves3):
    fp = fixed_point(env3, params3, GAMMA_REF, tol=1e-6, v0=0.5, curves=curves3)
    widths = [vu - vd for (_, _, _, vu, vd) in fp.trace]
    for a, b in zip(widths[:-1], widths[1:]):
        assert b <= a / 2 + 1e-15
    assert fp.residual <= 1e-6
    assert fp.iterations <= 30


def test_fixed_point_matches_scan_oracle(env3, params3, curves3):
    fp = fixed_point(env3, params3, GAMMA_REF, tol=1e-6, curves=curves3)
    zg = curves3.z_grid
    idx = int(np.searchsorted(zg, params3.comfort_levels[1], side="right")) - 1
    vs = np.linspace(0.0, 1.0, 1001)
    resid = np.empty_like(vs)
    for k, v in enumerate(vs):
        pv = project_detailed(euler_lagrange(curves3, GAMMA_REF, (v,)),
                              curves3).grid_values[idx]
        resid[k] = abs(v - pv)
    v_scan = vs[np.argmin(resid)]
    assert abs(fp.v_star[0] - v_scan) <= 1.5e-3   # scan grid resolution


def test_fixed_point_decoupled_middle_level(env3, params3, curves3):
    # remove the middle-level frontier: the candidate no longer depends on
    # v, so the projected level value is the fixed point itself and one
    # bracket update pins it
    c3 = SensitivityCurves(
        z_grid=curves3.z_grid, phi=curves3.phi, phi_prime=curves3.phi_prime,
        d1=curves3.d1,
        d_theta=np.array([curves3.d_theta[0], np.zeros_like(curves3.d_theta[1]),
                          curves3.d_theta[2]]),
        d_hat=curves3.d_hat, d_hat_frontier=curves3.d_hat_frontier,
        w=curves3.params.h**2 * curves3.d1 + curves3.params.c**2 * (
            curves3.d_theta[0] + curves3.d_theta[2]),
        delta_z=curves3.delta_z, delta_theta=curves3.delta_theta,
        tail_wind_off=curves3.tail_wind_off,
        tail_intermediate=curves3.tail_intermediate,
        env=curves3.env, params=curves3.params)
    fp = fixed_point(env3, params3, GAMMA_REF, tol=1e-9, v0=0.3, curves=c3)
    zg = c3.z_grid
    idx = int(np.searchsorted(zg, params3.comfort_levels[1], side="right")) - 1
    p_const = project_detailed(euler_lagrange(c3, GAMMA_REF, (0.3,)),
                               c3).grid_values[idx]
    assert fp.v_star[0] == pytest.approx(float(p_const), abs=1e-9)
    # one bracket endpoint hits the fixed point immediately
    _, _, _, vu0, vd0 = fp.trace[0]
    assert min(abs(vu0 - p_const), abs(vd0 - p_const)) <= 1e-12


def test_projected_level_value_decreasing_in_v(env3, curves3):
    zg = curves3.z_grid
    idx = int(np.searchsorted(zg, 70.0, side="right")) - 1
    vals = []
    for v in np.linspace(0.0, 1.0, 11):
        vals.append(project_detailed(euler_lagrange(curves3, GAMMA_REF, (v,)),
                                     curves3).grid_values[idx])
    assert np.all(np.diff(vals) <= 1e-9)


def test_multiwind_vanishing_intermediate_terms(env_w3, ref_params):
    curves = sensitivity_curves(env_w3, ref_params,
                                z_grid=default_z_grid(ref_params, step=0.5))
    stripped = SensitivityCurves(
        z_grid=curves.z_grid, phi=curves.phi, phi_prime=curves.phi_prime,
        d1=curves.d1, d_theta=curves.d_theta, d_hat=curves.d_hat,
        d_hat_frontier=np.zeros_like(curves.d_hat_frontier),
        w=ref_params.h**2 * curves.d1 + ref_params.c**2 * curves.d_theta.sum(axis=0),
        delta_z=curves.delta_z, delta_theta=curves.delta_theta,
        tail_wind_off=curves.tail_wind_off,
        tail_intermediate=curves.tail_intermediate,
        env=curves.env, params=curves.params)
    binary_form = ((GAMMA_REF * stripped.phi_prime
                    + 2 * 1.1 * (1.1 + 1.0) * stripped.d_theta[0])
                   / (2 * stripped.w_safe))
    assert np.allclose(euler_lagrange(stripped, GAMMA_REF),
                       np.clip(binary_form, 0, 1))


def test_multiwind_projection_dominates_random(env_w3, ref_params):
    curves = sensitivity_curves(env_w3, ref_params,
                                z_grid=default_z_grid(ref_params, step=0.5))
    u_star = project(euler_lagrange(curves, GAMMA_REF), curves)
    j_star = continuum_cost(u_star, curves, GAMMA_REF).total
    rng = np.random.default_rng(3)
    for _ in range(500):
        u = random_step_distribution(rng)
        assert continuum_cost(u, curves, GAMMA_REF).total >= j_star - 1e-9
