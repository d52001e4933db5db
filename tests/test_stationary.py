import warnings

import numpy as np
import pytest

from zpolicy import (
    LoadParams, build_environment, default_z_grid, phi, point_mass_curves, simulate,
    SimulationConfig, solve_stationary, verify_conservation,
)
from zpolicy.errors import InvalidSetPoint
from zpolicy.model import MarkovEnvironment
from zpolicy.stationary import Segment


def test_reference_instance_structure(ref_env, ref_params):
    dist = solve_stationary(100.0, ref_env, ref_params)
    # three aggregate mass locations: floor, Theta_1, set-point
    assert dist.mass_locations() == [0.0, 50.0, 100.0]
    assert abs(dist.total_mass() - 1.0) <= 1e-8
    assert verify_conservation(dist) <= 1e-8
    # four densities whose only discontinuity sits at Theta_1: the parked
    # mass there leaks into every state reachable in one transition, and
    # the drift of state 00 switches sign; state 11 has no direct inflow
    # and stays continuous
    left, right = dist.segments
    gap = np.abs(left.densities[:, -1] - right.densities[:, 0])
    assert gap[0] > 1e-4                   # forced-cooling switch in state 00
    assert gap[3] < 1e-10                  # no 00 -> 11 transition
    # inside each open interval the densities are smooth (no other jumps)
    for seg in dist.segments:
        steps = np.abs(np.diff(seg.densities, axis=1)).max()
        assert steps < 5e-4


def test_reference_boundary_fluxes(ref_env, ref_params):
    # the flux jump at each mass location equals Q times the mass there
    dist = solve_stationary(100.0, ref_env, ref_params)
    q = ref_env.generator
    left, right = dist.segments
    d_left = np.diag(left.drift)
    d_right = np.diag(right.drift)
    # floor: Q[:,2] m2 + Q[:,3] m3 = D(0+) p(0+)
    m_floor = np.array([dist.mass_at(0.0, state=s) for s in (2, 3)])
    lhs = q[:, 2] * m_floor[0] + q[:, 3] * m_floor[1]
    assert np.abs(lhs - d_left @ left.densities[:, 0]).max() <= 1e-8
    # Theta_1: Q[:,0] m = D(+) p(+) - D(-) p(-)
    m1 = dist.mass_at(50.0, state=0)
    jump = d_right @ right.densities[:, 0] - d_left @ left.densities[:, -1]
    assert np.abs(q[:, 0] * m1 - jump).max() <= 1e-8
    # set-point: Q[:,1] m = -D(z-) p(z-)
    mz = dist.mass_at(100.0, state=1)
    assert np.abs(q[:, 1] * mz + d_right @ right.densities[:, -1]).max() <= 1e-8


def test_system_counting_binary(ref_env, ref_params):
    # C^2 W + WC unknowns, (C+1) WC relations plus normalization, rank
    # short exactly one
    dist = solve_stationary(100.0, ref_env, ref_params)
    n_unknowns = 2**2 * 2 + 2 * 2
    assert dist.system_shape == ((2 + 1) * 2 * 2 + 1, n_unknowns)
    assert dist.system_rank == n_unknowns


def test_system_counting_three_levels(env3, params3):
    dist = solve_stationary(100.0, env3, params3)
    c, w = 3, 2
    n_unknowns = c**2 * w + w * c
    assert dist.system_shape == ((c + 1) * w * c + 1, n_unknowns)
    assert dist.system_rank == n_unknowns


def test_invalid_set_point(ref_env, ref_params):
    with pytest.raises(InvalidSetPoint):
        solve_stationary(101.0, ref_env, ref_params)
    with pytest.raises(InvalidSetPoint):
        solve_stationary(-1.0, ref_env, ref_params)


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_grid_step_must_be_finite_and_positive(ref_env, ref_params, step):
    with pytest.raises(ValueError):
        solve_stationary(80.0, ref_env, ref_params, grid_step=step)
    with pytest.raises(ValueError):
        point_mass_curves(ref_env, ref_params, [60.0, 80.0], grid_step=step)
    with pytest.raises(ValueError):
        default_z_grid(ref_params, step=step)


def test_wind_never_blows_parks_everything():
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0,))
    env = MarkovEnvironment(wind_generator=np.array([[0.0, 1.0], [0.0, -1.0]]),
                            comfort_generator=np.zeros((1, 1)))
    dist = solve_stationary(50.0, env, params)
    assert dist.mass_at(50.0) == pytest.approx(1.0, abs=1e-10)
    assert dist.densities.max() <= 1e-10


def test_z_zero_pins_load_at_floor(ref_env, ref_params):
    dist = solve_stationary(0.0, ref_env, ref_params)
    assert dist.mass_at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert dist.density_mass() == 0.0


def test_conservation_detects_perturbation(ref_env, ref_params):
    dist = solve_stationary(100.0, ref_env, ref_params)
    seg = dist.segments[0]
    bumped = seg.densities.copy()
    bumped[0] += 0.1
    perturbed = Segment(x=seg.x, densities=bumped, drift=seg.drift,
                        integral=seg.integral)
    forged = type(dist)(z=dist.z, env=dist.env, params=dist.params,
                        segments=(perturbed, dist.segments[1]),
                        point_masses=dist.point_masses,
                        system_shape=dist.system_shape,
                        system_rank=dist.system_rank)
    assert verify_conservation(forged) > 1e-3


def test_conservation_zero_for_degenerate(ref_env, ref_params):
    dist = solve_stationary(0.0, ref_env, ref_params)
    assert verify_conservation(dist) == 0.0


def test_point_mass_curves_reference(ref_env, ref_params):
    zg = np.linspace(0.5, 100.0, 201)
    curves = point_mass_curves(ref_env, ref_params, zg)
    # subadditivity: the three mass groups never exceed total probability
    total = curves.delta_z + curves.delta_theta.sum(axis=0)
    assert np.all(total <= 1.0 + 1e-9)
    assert np.all(curves.delta_z >= -1e-12)
    assert np.all(curves.delta_theta >= -1e-12)
    # below Theta_1 the set-point binds first: no mass at Theta_1
    assert np.abs(curves.delta_theta[0][zg <= 50.0]).max() <= 1e-12


def test_point_mass_curves_parallel_matches_serial(ref_env, ref_params):
    zg = np.linspace(55.0, 100.0, 10)
    serial = point_mass_curves(ref_env, ref_params, zg, workers=1)
    parallel = point_mass_curves(ref_env, ref_params, zg, workers=4)
    assert np.array_equal(serial.delta_z, parallel.delta_z)
    assert np.array_equal(serial.phi, parallel.phi)


def test_point_mass_curve_at_zero(ref_env, ref_params):
    curves = point_mass_curves(ref_env, ref_params, np.array([1e-9, 50.0]))
    pi = ref_env.stationary()
    wind_on = pi[2] + pi[3]
    assert curves.delta_z[0] == pytest.approx(1.0 - wind_on, abs=1e-6)


def test_curves_continuous_between_breakpoints(ref_env, ref_params):
    zg = np.concatenate([np.linspace(30.0, 50.0, 41),
                         np.linspace(50.5, 100.0, 100)])
    curves = point_mass_curves(ref_env, ref_params, zg)
    for arr in (curves.delta_z, curves.delta_theta[0], curves.phi):
        scale = max(arr.max() - arr.min(), 1e-12)
        below = arr[zg <= 50.0]
        above = arr[zg > 50.0]
        # steps of a continuous curve shrink with the grid; a jump would not
        assert np.abs(np.diff(below)).max() < 0.05 * scale
        assert np.abs(np.diff(above)).max() < 0.05 * scale


def test_low_set_point_mass_matches_simulation(ref_env, ref_params):
    # set-point below Theta_1: the load parks at z in both comfort states;
    # occupation fractions from a long simulation agree with the solver
    z = 40.0
    dist = solve_stationary(z, ref_env, ref_params)
    cfg = SimulationConfig(n_loads=1, horizon_jumps=1000000, seed=21,
                           set_points=np.array([z]), record_occupation=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    emp_at_z = sum(v for (load, loc), v in res.dwell_fractions.items()
                   if abs(loc - z) < 1e-6)
    assert emp_at_z == pytest.approx(dist.mass_at(z), abs=0.02)
    assert dist.mass_at(50.0) == 0.0


def test_analytic_cdf_matches_long_simulation(ref_env, ref_params):
    dist = solve_stationary(100.0, ref_env, ref_params)
    cfg = SimulationConfig(n_loads=1, horizon_jumps=400000, seed=2,
                           set_points=np.array([100.0]), record_occupation=True)
    res = simulate(cfg, ref_env, ref_params, gamma=0.0)
    edges = res.occupation_edges
    assert np.abs(res.occupation_cdf[0] - dist.cdf(edges)).max() <= 0.02


def test_cdf_scalar_in_float_out(ref_env, ref_params):
    dist = solve_stationary(100.0, ref_env, ref_params)
    value = dist.cdf(50.0)
    assert type(value) is float
    arr = dist.cdf(np.array([50.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (1,)
    assert arr[0] == value


@pytest.mark.parametrize("rate", [0.3, 1.0, 5.0])
def test_fast_switching_solves(rate, ref_params):
    # growing modes anchored at the right end of each interval cannot
    # overflow, however fast the environment switches
    env = build_environment((rate, rate), (rate / 2, rate / 2))
    dist = solve_stationary(100.0, env, ref_params)
    assert verify_conservation(dist) <= 1e-8
    assert abs(dist.total_mass() - 1.0) <= 1e-8
    curves = point_mass_curves(env, ref_params, default_z_grid(ref_params))
    for curve in (curves.tail, curves.tail_wind_off, curves.phi):
        assert curve.min() >= 0.0
    assert np.all(curves.delta_z_plus_theta <= 1.0 + 1e-9)


def _trapezoid_phi(dist, env, params):
    tot = 0.0
    for seg in dist.segments:
        for j, theta in enumerate(params.comfort_levels):
            dens = seg.densities[[env.state_index(i, j) for i in range(env.n_wind)]].sum(axis=0)
            excess = np.clip(seg.x - theta, 0.0, None)
            tot += float(np.trapezoid(excess * excess * dens, seg.x))
    return tot


@pytest.mark.parametrize("instance", ["ref", "c3", "w3"])
def test_sweep_matches_single_solves(instance, ref_env, ref_params, env3, params3, env_w3):
    env, params = {"ref": (ref_env, ref_params), "c3": (env3, params3),
                   "w3": (env_w3, ref_params)}[instance]
    zs = np.array([20.0, 45.0, 50.0, 65.0, 80.0, 100.0])
    curves = point_mass_curves(env, params, zs)
    for k, z in enumerate(zs):
        dist = solve_stationary(z, env, params)
        wind_off = [env.state_index(0, j) for j in range(env.n_comfort)]
        assert abs(curves.delta_z[k] - sum(dist.mass_at(z, state=s) for s in wind_off)) <= 1e-12
        for j, theta in enumerate(params.comfort_levels):
            expected = dist.mass_at(theta, state=wind_off[j]) if theta < z else 0.0
            assert abs(curves.delta_theta[j, k] - expected) <= 1e-12
        # whole-interval integrals of the single solve above Theta_1, and
        # above the active level with wind off
        tail = sum(float(seg.integral.sum()) for seg in dist.segments
                   if seg.x[0] >= params.comfort_levels[0])
        off = sum(float(seg.integral[wind_off[j]]) for seg in dist.segments
                  for j, theta in enumerate(params.comfort_levels) if seg.x[0] >= theta)
        assert abs(curves.tail[k] - tail) <= 1e-10
        assert abs(curves.tail_wind_off[k] - off) <= 1e-10
        # a batch of one against the batch of the whole grid
        assert abs(curves.phi[k] - phi(z, env, params)) <= 1e-10


def test_sweep_tails_and_phi_match_trapezoid(ref_env, ref_params, env3, params3, env_w3):
    # the closed-form integrals against the trapezoid rule on the solver
    # grid, Richardson-extrapolated from steps 0.1 and 0.05 (the rule alone
    # is off by up to 6e-6 relative at step 0.05)
    def trapezoid(env, params, z, step):
        dist = solve_stationary(z, env, params, grid_step=step)
        off = sum(dist.tail_above(theta, states=[env.state_index(0, j)])
                  for j, theta in enumerate(params.comfort_levels))
        return np.array([dist.tail_above(params.comfort_levels[0]), off,
                         _trapezoid_phi(dist, env, params)])

    for env, params in ((ref_env, ref_params), (env3, params3), (env_w3, ref_params)):
        zs = np.array([60.0, 80.0, 100.0])
        curves = point_mass_curves(env, params, zs)
        for k, z in enumerate(zs):
            coarse, fine = trapezoid(env, params, z, 0.1), trapezoid(env, params, z, 0.05)
            expected = fine + (fine - coarse) / 3.0
            got = np.array([curves.tail[k], curves.tail_wind_off[k], curves.phi[k]])
            assert got == pytest.approx(expected, rel=1e-6)


def _expm_reference(z, env, params):
    """The stationary law at z from an independent system: the unknowns are
    the densities p(lo+) at the left end of each interval and one mass per
    state, and expm(D^-1 Q L) carries p(lo+) to p(hi-).  Returns the
    masses (wind-on states at the floor, wind-off states at their comfort
    level or at z, whichever is lower), the densities at both ends of each
    interval, and the density mass."""
    from scipy.linalg import expm
    n, q = env.n_states, env.generator
    wind, comfort = np.divmod(np.arange(n), env.n_comfort)
    cooling = params.wind_cooling_rates(env.n_wind)[wind]
    ends = [0.0] + [theta for theta in params.comfort_levels if theta < z] + [z]
    n_int = len(ends) - 1
    at = np.where(wind > 0, 0, np.minimum(comfort + 1, n_int))
    a = np.zeros(((n_int + 1) * n + 1, (n_int + 1) * n))
    transfers = []
    for k in range(n_int):
        drift = np.where(comfort < k, -params.c, np.where(wind == 0, params.h, -cooling))
        generator = np.block([[q / drift[:, None], np.eye(n)], [np.zeros((n, 2 * n))]])
        aug = expm(generator * (ends[k + 1] - ends[k]))
        transfers.append(aug[:n, :n])
        cols = slice(k * n, (k + 1) * n)
        # Q[:, s] m_s = D(x+) p(x+) - D(x-) p(x-) at every breakpoint
        a[cols, cols] = -np.diag(drift)
        a[(k + 1) * n:(k + 2) * n, cols] = drift[:, None] * aug[:n, :n]
        a[-1, cols] = aug[:n, n:].sum(axis=0)
    a[at[:, None] * n + np.arange(n), n_int * n + np.arange(n)[:, None]] = q.T
    a[-1, n_int * n:] = 1.0
    rhs = np.zeros(len(a))
    rhs[-1] = 1.0
    x = np.linalg.lstsq(a, rhs, rcond=None)[0]
    starts = x[:n_int * n].reshape(n_int, n)
    masses = x[n_int * n:]
    return masses, starts, np.array([t @ p for t, p in zip(transfers, starts)]), 1.0 - masses.sum()


@pytest.mark.parametrize("c", [1.0, 1.0 - 1e-6, 1.0 + 1e-6])
def test_zero_mean_drift_matches_expm_reference(c, ref_env):
    # with h = c and symmetric wind the mean drift below Theta_1 is zero, or
    # within 1e-6 of it: D^-1 Q there is defective or nearly so, and its
    # eigenvectors are close to parallel
    params = LoadParams(h=1.0, c=c, comfort_levels=(50.0, 100.0))
    wind = np.arange(ref_env.n_states) // ref_env.n_comfort
    below = ref_env.generator / np.where(wind == 0, params.h, -c)[:, None]
    assert np.linalg.cond(np.linalg.eig(below)[1]) > 1e6

    zs = np.array([30.0, 75.0, 100.0])
    curves = point_mass_curves(ref_env, params, zs)
    for k, z in enumerate(zs):
        dist = solve_stationary(z, ref_env, params)
        assert verify_conservation(dist) <= 1e-8
        assert abs(dist.total_mass() - 1.0) <= 1e-8
        masses, starts, ends, density_mass = _expm_reference(z, ref_env, params)
        parked_at_z = 0.0
        for s, m in enumerate(masses):
            w, j = ref_env.split_index(s)
            loc = 0.0 if w else min(z, params.comfort_levels[j])
            assert abs(dist.mass_at(loc, state=s) - m) <= 1e-9
            if not w:
                parked_at_z += m if loc == z else 0.0
                expected = m if params.comfort_levels[j] < z else 0.0
                assert abs(curves.delta_theta[j, k] - expected) <= 1e-9
        assert abs(curves.delta_z[k] - parked_at_z) <= 1e-9
        assert abs(dist.density_mass() - density_mass) <= 1e-9
        for seg, start, end in zip(dist.segments, starts, ends):
            assert np.abs(seg.densities[:, 0] - start).max() <= 1e-9
            assert np.abs(seg.densities[:, -1] - end).max() <= 1e-9


def test_one_state_wind_chain_solves_without_warnings(ref_params):
    # wind permanently off: the cooling rate of the only wind state is 0,
    # not the 0/0 of i*c/(W-1)
    env = build_environment((), (0.02, 0.02))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = solve_stationary(80.0, env, ref_params)
    assert abs(dist.total_mass() - 1.0) <= 1e-8
    assert verify_conservation(dist) <= 1e-8
