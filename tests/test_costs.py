import numpy as np
import pytest

from zpolicy import (
    LoadParams, SimulationConfig, ThresholdDistribution, build_environment, continuum_cost,
    default_z_grid, euler_lagrange, finite_cost, fixed_point, phi, sensitivity_curves, simulate,
)
from zpolicy.costs import _dejump, _segment_slices
from zpolicy.errors import InvalidSetPoint, UnsortedInput
from zpolicy.stationary import PointMassCurves, point_mass_curves

import reference_costs
from conftest import (
    CHAIN_SIZES, GAMMA_REF, chain_instance, random_step_distribution, same_bits,
)


def test_phi_zero_at_theta1(ref_env, ref_params):
    assert phi(50.0, ref_env, ref_params) == pytest.approx(0.0, abs=1e-12)


def test_phi_zero_at_zero(ref_env, ref_params):
    assert phi(0.0, ref_env, ref_params) == 0.0


def test_phi_against_simulation(ref_env, ref_params):
    # time-averaged squared excess above the active comfort level
    value = phi(100.0, ref_env, ref_params)
    cfg = SimulationConfig(n_loads=1, horizon_jumps=1000000, seed=13,
                           set_points=np.array([100.0]))
    res = simulate(cfg, ref_env, ref_params, gamma=1.0)
    assert value > 0
    assert res.empirical_cost.discomfort_cost == pytest.approx(value, rel=0.03)


def test_d1_zero_on_constant_stretch(ref_env, ref_params):
    zg = np.linspace(1.0, 49.0, 25)
    raw = PointMassCurves(
        z_grid=zg, delta_z=np.full(25, 0.3),
        delta_theta=np.zeros((2, 25)), tail=np.zeros(25),
        tail_wind_off=np.zeros(25), tail_intermediate=np.zeros((0, 25)),
        phi=np.zeros(25), env=ref_env, params=ref_params)
    curves = sensitivity_curves(ref_env, ref_params, raw=raw)
    assert np.abs(curves.d1).max() == 0.0


def test_frontier_densities_nonnegative(ref_curves):
    # monotone mass decay on the reference instance
    assert curves_min(ref_curves.d1) >= -1e-6
    assert curves_min(ref_curves.d_theta[0]) >= -1e-6


def curves_min(arr):
    return float(np.min(arr))


def test_central_difference_order(ref_env, ref_params):
    # halving the step changes D1 at second order on smooth stretches
    c_coarse = sensitivity_curves(ref_env, ref_params,
                                  z_grid=default_z_grid(ref_params, step=1.0))
    c_mid = sensitivity_curves(ref_env, ref_params,
                               z_grid=default_z_grid(ref_params, step=0.5))
    c_fine = sensitivity_curves(ref_env, ref_params,
                                z_grid=default_z_grid(ref_params, step=0.25))
    probe = np.linspace(60.0, 95.0, 50)
    d_cm = np.abs(np.interp(probe, c_coarse.z_grid, c_coarse.d1)
                  - np.interp(probe, c_fine.z_grid, c_fine.d1)).max()
    d_mf = np.abs(np.interp(probe, c_mid.z_grid, c_mid.d1)
                  - np.interp(probe, c_fine.z_grid, c_fine.d1)).max()
    assert d_mf < d_cm / 2.5


def test_dejump_makes_curves_continuous():
    zg = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    slices = _segment_slices(zg, (3.0, 6.0))
    curve = np.array([1.0, 0.9, 0.8, 0.3, 0.2])   # jump after z = 3
    adj = _dejump(curve, slices)
    assert np.abs(np.diff(adj)).max() < 0.2
    assert np.allclose(adj[3:], curve[3:])         # right branch untouched


def test_finite_cost_requires_sorted(ref_env, ref_params, ref_curves):
    with pytest.raises(UnsortedInput):
        finite_cost([80.0, 60.0], ref_env, ref_params, GAMMA_REF,
                    curves=ref_curves)


@pytest.mark.parametrize("set_points, error", [
    ([150.0, 200.0], InvalidSetPoint), ([-5.0, 60.0], InvalidSetPoint),
    ([float("nan"), 60.0], InvalidSetPoint), ([], ValueError), ([[60.0, 90.0]], ValueError),
], ids=["above", "below", "nan", "empty", "2d"])
def test_finite_cost_rejects_bad_set_points(set_points, error, ref_env, ref_params, ref_curves):
    # the same set-points phi and solve_stationary refuse, and vectors
    # that are empty or not 1-d
    with pytest.raises(error):
        finite_cost(set_points, ref_env, ref_params, GAMMA_REF, curves=ref_curves)


@pytest.mark.parametrize("entry", ["finite_cost", "fixed_point", "sensitivity_curves"])
def test_curves_built_for_another_model_are_refused(entry, ref_env, ref_params, ref_curves,
                                                    env_w3):
    raw = point_mass_curves(ref_env, ref_params, default_z_grid(ref_params, step=5.0))
    call = {
        "finite_cost": lambda env, params: finite_cost([60.0, 90.0], env, params, GAMMA_REF,
                                                       curves=ref_curves),
        "fixed_point": lambda env, params: fixed_point(env, params, GAMMA_REF, curves=ref_curves),
        "sensitivity_curves": lambda env, params: sensitivity_curves(env, params, raw=raw),
    }[entry]
    call(build_environment((0.04, 0.04), (0.02, 0.02)), ref_params)   # an equal model
    other_comfort = build_environment((0.04, 0.04), (0.03, 0.02))
    other_load = LoadParams(h=1.2, c=1.1, comfort_levels=(50.0, 100.0))
    for env, params in ((env_w3, ref_params), (other_comfort, ref_params), (ref_env, other_load)):
        with pytest.raises(ValueError, match="another environment or load"):
            call(env, params)


def test_finite_cost_single_load_formula(ref_env, ref_params, ref_curves):
    # N = 1 reduces to the single-TCL cost:
    # (h+c)^2 P(viol) + h^2 P(parked at Theta_1) + h^2 P(parked at z) + g Phi
    z = 80.0
    h, c = ref_params.h, ref_params.c
    rep = finite_cost([z], ref_env, ref_params, GAMMA_REF, curves=ref_curves)
    expected_power = ((h + c) ** 2 * ref_curves.interp(ref_curves.tail_wind_off, z)
                      + h * h * ref_curves.interp(ref_curves.delta_theta[0], z)
                      + h * h * ref_curves.interp(ref_curves.delta_z, z))
    assert rep.power_cost == pytest.approx(float(expected_power), rel=1e-12)
    assert rep.discomfort_cost == pytest.approx(
        float(ref_curves.interp(ref_curves.phi, z)), rel=1e-12)


def test_finite_cost_single_load_matches_simulation(ref_env, ref_params, ref_curves):
    rep = finite_cost([100.0], ref_env, ref_params, 0.0, curves=ref_curves)
    cfg = SimulationConfig(n_loads=1, horizon_jumps=1000000, seed=11,
                           set_points=np.array([100.0]))
    emp = simulate(cfg, ref_env, ref_params, 0.0).empirical_cost
    assert rep.power_cost == pytest.approx(emp.power_cost, rel=0.02)


_NESTED = ("with a switching comfort level the telescope assumes parked sets nested by "
           "set-point; sampled power is {} higher")
_W3 = [(0.04, 0.04), (0.04, 0.04)]


@pytest.mark.parametrize("wind_rates, levels, comfort_rates", [
    ((0.04, 0.04), (100.0,), []),
    pytest.param((0.04, 0.04), (50.0, 100.0), (0.02, 0.02),
                 marks=pytest.mark.xfail(strict=True, reason=_NESTED.format("23-28%"))),
    pytest.param((0.04, 0.04), (40.0, 70.0, 100.0), [(0.02, 0.02), (0.02, 0.02)],
                 marks=pytest.mark.xfail(strict=True, reason=_NESTED.format("15-17%"))),
    pytest.param(_W3, (50.0, 100.0), (0.02, 0.02),
                 marks=pytest.mark.xfail(strict=True, reason=_NESTED.format("11-16%"))),
    (_W3, (100.0,), []),
], ids=["C1", "REF", "C3", "W3", "W3_C1"])
def test_finite_cost_power_matches_simulation_on_a_spread(wind_rates, levels, comfort_rates):
    # 20 set-points spread over [52, 100]: with one comfort level the analytic
    # and the sampled power agree (C1: gaps of -0.1% to -2.6% over seeds 1-8;
    # W3 with one level: -3.2% to +0.4% over seeds 1-3), with binary or
    # three-state wind; with a switching comfort level they do not yet (REF
    # +23% to +28%, C3 +15% to +17%, W3 +11% to +16%)
    env = build_environment(wind_rates, comfort_rates)
    params = LoadParams(h=1.0, c=1.1, comfort_levels=levels)
    z = np.linspace(52.0, 100.0, 20)
    analytic = finite_cost(z, env, params, 0.0).power_cost
    cfg = SimulationConfig(n_loads=20, horizon_jumps=300000, seed=1, set_points=z)
    sampled = simulate(cfg, env, params, 0.0).empirical_cost.power_cost
    assert sampled == pytest.approx(analytic, rel=0.06)


def test_finite_cost_equal_set_points_degenerate(ref_env, ref_params, ref_curves):
    # identical set-points couple identically: full synchronization means
    # the normalized cost equals the single-load cost
    one = finite_cost([80.0], ref_env, ref_params, GAMMA_REF, curves=ref_curves)
    many = finite_cost([80.0] * 7, ref_env, ref_params, GAMMA_REF,
                       curves=ref_curves)
    assert many.total == pytest.approx(one.total, rel=1e-9)


def test_gamma_zero_removes_discomfort_term(ref_env, ref_params, ref_curves):
    a = finite_cost([60.0, 70.0, 80.0], ref_env, ref_params, 0.0,
                    curves=ref_curves)
    b = finite_cost([60.0, 70.0, 80.0], ref_env, ref_params, GAMMA_REF,
                    curves=ref_curves)
    assert a.power_cost == b.power_cost
    assert a.total == a.power_cost
    assert b.total == b.power_cost + GAMMA_REF * b.discomfort_cost


def test_finite_cost_matches_simulation_three_loads(ref_env, ref_params, ref_curves):
    z = [60.0, 70.0, 80.0]
    rep = finite_cost(z, ref_env, ref_params, GAMMA_REF, curves=ref_curves)
    cfg = SimulationConfig(n_loads=3, horizon_jumps=600000, seed=7,
                           set_points=np.array(z))
    emp = simulate(cfg, ref_env, ref_params, GAMMA_REF).empirical_cost
    assert rep.total == pytest.approx(emp.total, rel=0.05)


def test_continuum_step_at_top_by_parts_identity(ref_curves):
    # all mass at the top: int Phi u' = Phi(Theta_2) exactly
    u = ThresholdDistribution.step_function([100.0], [1.0], (0.0, 100.0))
    rep = continuum_cost(u, ref_curves, GAMMA_REF)
    assert rep.discomfort_cost == pytest.approx(float(ref_curves.phi[-1]),
                                                abs=1e-10)


def test_quadratic_form_equivalence(ref_curves):
    # J[u1] - J[u2] equals the difference of the weighted quadratic forms
    # around the raw Euler-Lagrange ratio
    zg = ref_curves.z_grid
    u_el = euler_lagrange(ref_curves, GAMMA_REF, clamp=False)

    def quad(u):
        uv = u.left_values(zg)
        return float(np.trapezoid(ref_curves.w * (uv - u_el) ** 2, zg))

    rng = np.random.default_rng(0)
    for _ in range(100):
        u1 = random_step_distribution(rng)
        u2 = random_step_distribution(rng)
        lhs = (continuum_cost(u1, ref_curves, GAMMA_REF).total
               - continuum_cost(u2, ref_curves, GAMMA_REF).total)
        rhs = quad(u1) - quad(u2)
        assert abs(lhs - rhs) <= 1e-8


def test_uniform_matches_finite_400(ref_env, ref_params, ref_curves):
    u = ThresholdDistribution.uniform((0.0, 100.0))
    cont = continuum_cost(u, ref_curves, GAMMA_REF)
    fin = finite_cost(u.sample_quantiles(400), ref_env, ref_params, GAMMA_REF,
                      curves=ref_curves)
    assert fin.total == pytest.approx(cont.total, rel=0.02)


def test_finite_converges_to_continuum(ref_env, ref_params, ref_curves):
    from zpolicy import project_detailed
    u = project_detailed(euler_lagrange(ref_curves, GAMMA_REF),
                         ref_curves).distribution
    cont = continuum_cost(u, ref_curves, GAMMA_REF).total
    gaps = []
    for n in (10, 40, 160):
        fin = finite_cost(u.sample_quantiles(n), ref_env, ref_params,
                          GAMMA_REF, curves=ref_curves).total
        gaps.append(abs(fin - cont) / cont)
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] <= 0.05


def test_continuum_invariant_to_regridding(ref_curves):
    u = ThresholdDistribution.step_function([55.0, 70.0], [0.4, 0.9],
                                            (0.0, 100.0))
    fine = np.sort(np.concatenate([u.x, np.linspace(0.0, 100.0, 317)]))
    u2 = u.regrid(fine)
    a = continuum_cost(u, ref_curves, GAMMA_REF).total
    b = continuum_cost(u2, ref_curves, GAMMA_REF).total
    assert a == pytest.approx(b, abs=1e-12)


def test_w_positive_on_reference(ref_curves):
    assert not ref_curves.w_nonpositive
    assert ref_curves.w.min() > 0


def _one_point_second_interval(z_grid, levels):
    """z_grid with only Theta_2 left of the second comfort interval, so
    that interval has one point and no gradient stencil."""
    if len(levels) < 2:
        return z_grid
    inside = (z_grid > levels[0]) & (z_grid < levels[1])
    return z_grid[~inside]


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n_wind, n_comfort", CHAIN_SIZES)
def test_curves_match_reference_on_every_chain_size(n_wind, n_comfort, sparse):
    # every field, shapes included, is bitwise the frozen per-row derivation
    env, params = chain_instance(n_wind, n_comfort)
    zg = default_z_grid(params, step=5.0)
    if sparse:
        zg = _one_point_second_interval(zg, params.comfort_levels)
    raw = point_mass_curves(env, params, zg)
    curves = sensitivity_curves(env, params, raw=raw)
    expected = reference_costs.derive_curves(raw, env, params)
    for name, want in expected.items():
        assert same_bits(getattr(curves, name), want), name
    assert curves.d_hat_frontier.shape == (max(n_wind - 2, 0), len(zg))
