"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them live)."""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

import zpolicy as zp
from zpolicy.variational import _cell_weights

from conftest import GAMMA_REF, random_step_distribution


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- 1


def test_criterion_1_conservation_and_normalization(ref_env, ref_params):
    t0 = time.monotonic()
    dist = zp.solve_stationary(100.0, ref_env, ref_params)
    residual = zp.verify_conservation(dist)
    mass = dist.total_mass()
    elapsed = time.monotonic() - t0
    locations = dist.mass_locations()
    left, right = dist.segments
    gap = np.abs(left.densities[:, -1] - right.densities[:, 0])
    interior_smooth = max(np.abs(np.diff(seg.densities, axis=1)).max()
                          for seg in dist.segments)
    ok = (residual <= 1e-8 and abs(mass - 1.0) <= 1e-8
          and locations == [0.0, 50.0, 100.0] and gap[0] > 1e-4
          and interior_smooth < 5e-4 and elapsed <= 5.0)
    _report(1, ok, f"conservation {residual:.2e}, mass error "
                   f"{abs(mass - 1.0):.2e}, masses at {locations}, "
                   f"{elapsed:.2f}s")
    assert residual <= 1e-8
    assert abs(mass - 1.0) <= 1e-8
    assert locations == [0.0, 50.0, 100.0]
    assert gap[0] > 1e-4 and interior_smooth < 5e-4
    assert elapsed <= 5.0


# ---------------------------------------------------------------- 2


def test_criterion_2_analytic_vs_simulation(ref_env, ref_params):
    t0 = time.monotonic()
    dist = zp.solve_stationary(100.0, ref_env, ref_params)
    cfg = zp.SimulationConfig(n_loads=1, horizon_jumps=1000000, seed=11,
                              set_points=np.array([100.0]),
                              record_occupation=True)
    res = zp.simulate(cfg, ref_env, ref_params, gamma=0.0)
    sup = float(np.abs(res.occupation_cdf[0]
                       - dist.cdf(res.occupation_edges)).max())
    elapsed = time.monotonic() - t0
    ok = sup <= 0.02 and elapsed <= 60.0
    _report(2, ok, f"sup CDF distance {sup:.4f} at 1e6 jumps, {elapsed:.1f}s")
    assert sup <= 0.02
    assert elapsed <= 60.0


# ---------------------------------------------------------------- 3


def _qp_isotonic(y, w):
    n = len(y)
    cons = [{"type": "ineq", "fun": (lambda x, i=i: x[i + 1] - x[i])}
            for i in range(n - 1)]
    res = minimize(lambda x: float(np.sum(w * (x - y) ** 2)),
                   x0=np.clip(np.sort(y), 0, 1),
                   jac=lambda x: 2 * w * (x - y),
                   bounds=[(0.0, 1.0)] * n, constraints=cons,
                   method="SLSQP", options={"maxiter": 500, "ftol": 1e-16})
    return res.x


def test_criterion_3_projection_optimality(ref_env, ref_params):
    t0 = time.monotonic()
    curves = zp.sensitivity_curves(ref_env, ref_params,
                                   z_grid=zp.default_z_grid(ref_params,
                                                            step=0.5))
    worst_excess = -np.inf
    max_equal_area = 0.0
    for gamma in (0.0, GAMMA_REF):
        proj = zp.project_detailed(zp.euler_lagrange(curves, gamma), curves)
        j_star = zp.continuum_cost(proj.distribution, curves, gamma).total
        rng = np.random.default_rng(2024)
        for _ in range(500):
            u = random_step_distribution(rng)
            worst_excess = max(worst_excess,
                               j_star - zp.continuum_cost(u, curves, gamma).total)
        max_equal_area = max(max_equal_area,
                             float(np.abs(proj.equal_area_residuals).max()))

    # brute-force QP oracle on a 60-point grid, compared in J
    coarse = zp.sensitivity_curves(ref_env, ref_params,
                                   z_grid=zp.default_z_grid(ref_params,
                                                            step=100 / 60))
    qp_gap = 0.0
    for gamma in (0.0, GAMMA_REF):
        u_el = zp.euler_lagrange(coarse, gamma)
        fit = zp.project_detailed(u_el, coarse).grid_values
        w = np.clip(_cell_weights(coarse.z_grid, coarse.w), 1e-12, None)
        oracle = _qp_isotonic(u_el, w)
        j_fit = float(np.sum(w * (fit - u_el) ** 2))
        j_oracle = float(np.sum(w * (oracle - u_el) ** 2))
        qp_gap = max(qp_gap, j_fit - j_oracle)
    elapsed = time.monotonic() - t0
    ok = (worst_excess <= 1e-9 and qp_gap <= 1e-6
          and max_equal_area <= 1e-6 and elapsed <= 60.0)
    _report(3, ok, f"best random-step excess {worst_excess:.2e}, QP gap "
                   f"{qp_gap:.2e}, equal-area {max_equal_area:.2e}, "
                   f"{elapsed:.1f}s")
    assert worst_excess <= 1e-9
    assert qp_gap <= 1e-6
    assert max_equal_area <= 1e-6
    assert elapsed <= 60.0


# ---------------------------------------------------------------- 4


def test_criterion_4_fixed_point_contraction(env3, params3, curves3):
    fp = zp.fixed_point(env3, params3, GAMMA_REF, tol=1e-6, v0=0.5,
                        curves=curves3, max_iter=30)
    widths = [vu - vd for (_it, _j, _v, vu, vd) in fp.trace]
    halving = all(b <= a / 2 + 1e-15 for a, b in zip(widths[:-1], widths[1:]))

    zg = curves3.z_grid
    idx = int(np.searchsorted(zg, params3.comfort_levels[1],
                              side="right")) - 1
    vs = np.linspace(0.0, 1.0, 1001)
    resid = np.empty_like(vs)
    for k, v in enumerate(vs):
        pv = zp.project_detailed(zp.euler_lagrange(curves3, GAMMA_REF, (v,)),
                                 curves3).grid_values[idx]
        resid[k] = abs(v - pv)
    scan_gap = abs(fp.v_star[0] - vs[np.argmin(resid)])
    ok = (halving and fp.residual <= 1e-6 and fp.iterations <= 30
          and scan_gap <= 1.5e-3)
    _report(4, ok, f"halving {halving}, residual {fp.residual:.2e} in "
                   f"{fp.iterations} iterations, scan gap {scan_gap:.2e}")
    assert halving
    assert fp.residual <= 1e-6
    assert fp.iterations <= 30
    assert scan_gap <= 1.5e-3    # one scan-grid cell


# ---------------------------------------------------------------- 5


def test_criterion_5_finite_to_continuum(ref_env, ref_params, ref_curves):
    u_star = zp.project(zp.euler_lagrange(ref_curves, GAMMA_REF), ref_curves)
    j_star = zp.continuum_cost(u_star, ref_curves, GAMMA_REF).total
    gaps = {}
    for n in (10, 100):
        fin = zp.finite_cost(u_star.sample_quantiles(n), ref_env, ref_params,
                             GAMMA_REF, curves=ref_curves).total
        gaps[n] = abs(fin - j_star) / j_star
    ok = gaps[100] <= 0.05 and gaps[100] < gaps[10]
    _report(5, ok, f"relative gap {gaps[100]:.4f} at N=100, "
                   f"{gaps[10]:.4f} at N=10")
    assert gaps[100] <= 0.05
    assert gaps[100] < gaps[10]


# ---------------------------------------------------------------- 6


def test_criterion_6_monotone_coupling(ref_env, ref_params):
    violations = 0
    for k in range(100):
        cfg = zp.SimulationConfig(n_loads=3, horizon_jumps=10000,
                                  seed=zp.child_seed(606, k),
                                  set_points=np.array([55.0, 72.0, 94.0]),
                                  record_trace=True, burn_in=0.0)
        res = zp.simulate(cfg, ref_env, ref_params, gamma=0.0)
        ok_run, _ = zp.check_dominance(res)
        if not ok_run:
            violations += 1
    # injected fault must fire
    cfg = zp.SimulationConfig(n_loads=2, horizon_jumps=500, seed=1,
                              set_points=np.array([60.0, 90.0]),
                              record_trace=True)
    res = zp.simulate(cfg, ref_env, ref_params, gamma=0.0)
    forged_x = res.trace_x.copy()
    forged_x[5] = forged_x[5][::-1] + np.array([1.0, 0.0])
    forged = type(res)(**{**res.__dict__, "trace_x": forged_x})
    fired = not zp.check_dominance(forged)[0]
    ok = violations == 0 and fired
    _report(6, ok, f"{violations} violations in 100 runs x 1e4 instants, "
                   f"fault detector fired: {fired}")
    assert violations == 0
    assert fired


# ---------------------------------------------------------------- 7


def test_criterion_7_cftp_correctness(ref_env, ref_params):
    t0 = time.monotonic()
    set_points = (70.0, 90.0)
    cfg = zp.CftpConfig(wind_rates=(0.04, 0.04),
                        load_params=(ref_params, ref_params),
                        comfort_rates=((0.02, 0.02), (0.02, 0.02)),
                        set_points=set_points, seed=7)
    n_samples = 10000
    temps = np.array([s.temperatures for s in zp.cftp_samples(cfg, [np.random.default_rng(
        np.random.SeedSequence([707, k]).generate_state(1)[0]) for k in range(n_samples)])])

    # forward oracle: each marginal is a single-load run with its own
    # comfort chain; 5e6 jumps per load = 1e7 steps total
    edges = np.linspace(0.0, 100.0, 21)
    worst_tv = 0.0
    for i, z in enumerate(set_points):
        sim = zp.SimulationConfig(n_loads=1, horizon_jumps=5000000,
                                  seed=31 + i, set_points=np.array([z]),
                                  record_occupation=True,
                                  occupation_edges=21)
        res = zp.simulate(sim, ref_env, ref_params, gamma=0.0)
        cdf_fwd = res.occupation_cdf[0]
        bins_fwd = np.diff(np.concatenate([[0.0], cdf_fwd[1:]]))
        counts = np.array([((temps[:, i] > edges[k]) &
                            (temps[:, i] <= edges[k + 1])).mean()
                           for k in range(20)])
        counts[0] += (temps[:, i] <= edges[0]).mean()
        worst_tv = max(worst_tv, 0.5 * float(np.abs(counts - bins_fwd).sum()))
    elapsed = time.monotonic() - t0
    ok = worst_tv <= 0.03 and elapsed <= 600.0
    _report(7, ok, f"worst marginal TV {worst_tv:.4f} (1e4 samples vs 1e7 "
                   f"forward steps), {elapsed:.0f}s")
    assert worst_tv <= 0.03
    assert elapsed <= 600.0


# ---------------------------------------------------------------- 8


def test_criterion_8_heuristic_quality(ref_env, ref_params, ref_curves):
    u_star = zp.project(zp.euler_lagrange(ref_curves, GAMMA_REF), ref_curves)
    j_star = zp.continuum_cost(u_star, ref_curves, GAMMA_REF).total
    cost_fn = zp.make_simulation_cost_fn(ref_env, ref_params, GAMMA_REF,
                                         n_loads=200, horizon_jumps=20000,
                                         seed=9)
    episode = zp.SimulationConfig(n_loads=200, horizon_jumps=20000, seed=9)
    j_uniform = zp.estimate_cost(
        zp.PiecewiseDistribution(level=3,
                                 alphas=(np.arange(8) + 1.0) / 8.0,
                                 domain=(0.0, 100.0)),
        zp.sample_episodes(episode, ref_env, ref_params, n_replications=1), GAMMA_REF).j_hat

    best, trace = zp.successive_refinement(
        cost_fn, initial_level=0, max_level=3, epsilon=0.5, seed=4,
        domain=(0.0, 100.0), exploration=0.02, patience=10,
        max_steps_per_level=80)
    best_j = trace.best[1]

    per_level = {}
    for (_k, lv, _al, j) in trace.steps:
        per_level[lv] = min(per_level.get(lv, np.inf), j)
    levels = sorted(per_level)
    nonincreasing = all(per_level[a] >= per_level[b] - 1e-12
                        for a, b in zip(levels, levels[1:]))
    rel = abs(best_j - j_star) / j_star
    ok = rel <= 0.10 and best_j < j_uniform and nonincreasing
    _report(8, ok, f"best J {best_j:.5f} vs J* {j_star:.5f} "
                   f"({100 * rel:.1f}%), uniform {j_uniform:.5f}, "
                   f"levels nonincreasing {nonincreasing}")
    assert rel <= 0.10
    assert best_j < j_uniform
    assert nonincreasing


# ---------------------------------------------------------------- 9


def test_criterion_9_hjb_structure(ref_env, ref_params):
    t0 = time.monotonic()
    vals, pol = zp.solve_hjb(ref_env, ref_params, horizon=60.0,
                             grid_step=1.0, time_step=0.2)
    sym = max(float(np.abs(vals.values[e] - vals.values[e].T).max())
              for e in range(4))

    x = pol.x
    nx = len(x)
    interior = slice(1, nx - 1)
    bang = True
    for e in (2, 3):
        w1 = pol.wind[e, interior, interior, 0]
        w2 = pol.wind[e, interior, interior, 1]
        v = vals.values[e][interior, interior]
        grad_gap = np.abs(np.gradient(v, axis=0) - np.gradient(v, axis=1))
        tie = grad_gap <= 0.05 * max(1.0, float(np.abs(v).max()) / nx)
        if np.minimum(w1, w2)[~tie].max(initial=0.0) > 1e-9:
            bang = False

    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    desync_cells = 0
    for e in (2, 3):
        w1 = pol.wind[e, :, :, 0]
        w2 = pol.wind[e, :, :, 1]
        cooler = ((x1 < x2) & (w1 > w2 + 1e-9)) | ((x2 < x1) & (w2 > w1 + 1e-9))
        desync_cells += int((cooler & (np.abs(x1 - x2) > 2.0)).sum())

    sups = []
    for gs, dt in ((4.0, 0.5), (2.0, 0.25), (1.0, 0.125)):
        v, _ = zp.solve_hjb(ref_env, ref_params, horizon=30.0, grid_step=gs,
                            time_step=dt)
        sups.append(v.values)
    d1 = max(float(np.abs(sups[0][e] - sups[1][e][::2, ::2]).max())
             for e in range(4))
    d2 = max(float(np.abs(sups[1][e] - sups[2][e][::2, ::2]).max())
             for e in range(4))
    elapsed = time.monotonic() - t0
    ok = (sym <= 1e-9 and bang and desync_cells > 0 and d2 < d1
          and elapsed <= 60.0)
    _report(9, ok, f"V symmetry {sym:.1e}, bang-bang {bang}, desync cells "
                   f"{desync_cells}, self-convergence {d1:.2f}->{d2:.2f}, "
                   f"{elapsed:.0f}s")
    assert sym <= 1e-9
    assert bang
    assert desync_cells > 0
    assert d2 < d1
    assert elapsed <= 60.0


# ---------------------------------------------------------------- 10


def test_criterion_10_cli_reproducibility(tmp_path):
    import json
    from zpolicy.cli import main

    cfg = {
        "model": {"h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
                  "wind_rates": [0.04, 0.04], "comfort_rates": [0.02, 0.02]},
        "solver": {"gamma": GAMMA_REF, "z_grid_step": 1.0},
        "simulation": {"n_loads": 3, "horizon_jumps": 3000, "seed": 5,
                       "set_points": [60.0, 70.0, 80.0],
                       "record_trace": True},
        "cftp": {"n_samples": 25, "set_points": [70.0, 90.0], "seed": 4},
        "heuristic": {"episode_jumps": 1500, "n_loads": 15, "seed": 3,
                      "max_level": 1},
        "hjb": {"horizon": 8.0, "grid_step": 10.0, "time_step": 2.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    # compare runs one load at one set-point
    compare_path = tmp_path / "compare.json"
    compare_path.write_text(json.dumps({**cfg, "simulation": {
        **cfg["simulation"], "n_loads": 1, "set_points": [60.0]}}))
    identical = True
    for command in ("distribution", "curves", "optimize", "simulate",
                    "cftp", "heuristic", "hjb", "compare"):
        path = compare_path if command == "compare" else cfg_path
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            rc = main([command, "--config", str(path), "--out", str(out)])
            assert rc == 0, command
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            twin = outs[1] / f.name
            if f.read_bytes() != twin.read_bytes():
                identical = False
    _report(10, identical, "all eight commands byte-identical on rerun")
    assert identical
