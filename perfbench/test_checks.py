"""Every check of the benchmark passes on the CLI's own artifacts and fires
on an injected fault.

    python3 -m pytest perfbench/test_checks.py -q
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import zpolicy as zp                      # noqa: E402
from zpolicy.cli import main              # noqa: E402

import checks                             # noqa: E402
from workloads import C3, GAMMA, REF, TOL_MARGINAL, instance   # noqa: E402

COARSE = {"gamma": GAMMA, "z_grid_step": 2.0}


def run_cli(tmp: Path, name: str, command: str, config: dict, *args) -> Path:
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp / name
    assert main([command, "--config", str(cfg), "--out", str(out), *args]) == 0
    return out


def faulty(out: Path, tmp: Path) -> Path:
    """A copy of an artifact directory to corrupt."""
    copy = tmp / f"{out.name}-fault"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    return copy


def edit_csv(path: Path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def edit_json(path: Path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def coarse_curves(model):
    env, params = instance(model)
    return zp.sensitivity_curves(env, params, z_grid=zp.default_z_grid(params, step=2.0),
                                 workers=1)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


@pytest.fixture(scope="module")
def competitors():
    return checks.random_steps(np.random.default_rng(5), (0.0, 100.0), 50)


def test_closed_forms():
    assert np.allclose(checks.birth_death_law((1.0, 3.0)), [0.75, 0.25])
    assert np.allclose(checks.birth_death_law([(1.0, 2.0), (1.0, 2.0)]), [4 / 7, 2 / 7, 1 / 7])
    assert checks.dkw_bound(3000, 1e-6) == pytest.approx(0.0492, abs=1e-4)
    assert checks.dkw_bound(300, 1e-6, tests=2) > checks.dkw_bound(300, 1e-6)


def test_ks_distance_counts_atoms():
    # half the mass at 0, the rest uniform on (0, 1]
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, 0.5 + 0.5 * np.clip(x, 0.0, 1.0))
    rng = np.random.default_rng(0)
    exact = np.where(rng.random(4000) < 0.5, 0.0, rng.random(4000))
    assert checks.ks_distance(exact, cdf) < checks.dkw_bound(4000, 1e-6)
    no_atom = rng.random(4000)
    assert checks.ks_distance(no_atom, cdf) > 0.4


def test_distribution(tmp):
    out = run_cli(tmp, "distribution", "distribution", {"model": REF}, "--z", "100")
    assert checks.check_distribution(out, REF, TOL_MARGINAL) == []

    bad = faulty(out, tmp)
    edit_csv(bad / "masses.csv",
             lambda rows: [[loc, s, repr(1.01 * float(m))] for loc, s, m in rows])
    assert any("birth-death" in p for p in checks.check_distribution(bad, REF, TOL_MARGINAL))

    bad = faulty(out, tmp)
    edit_json(bad / "distribution.json", conservation_residual=1e-6, total_mass=1.001)
    problems = checks.check_distribution(bad, REF, TOL_MARGINAL)
    assert any("conservation" in p for p in problems)
    assert any("total mass" in p for p in problems)


def test_curves(tmp):
    config = {"model": REF, "solver": COARSE}
    out = run_cli(tmp, "curves", "curves", config)
    reference = coarse_curves(REF)
    _, params = instance(REF)
    assert checks.check_curves(out, reference, params) == []

    bad = faulty(out, tmp)
    edit_csv(bad / "curves.csv",
             lambda rows: rows[:-1] + [[rows[-1][0], "0.5"] + rows[-1][2:]])
    problems = checks.check_curves(bad, reference, params)
    assert any("decreasing" in p for p in problems)
    assert any("serial rebuild" in p for p in problems)

    bad = faulty(out, tmp)
    edit_csv(bad / "curves.csv",
             lambda rows: [[rows[0][0], "0.1"] + rows[0][2:-1] + ["2.0"]] + rows[1:])
    problems = checks.check_curves(bad, reference, params)
    assert any("phi nonzero" in p for p in problems)
    assert any("w differs" in p for p in problems)


def test_u_star(tmp, competitors):
    out = run_cli(tmp, "optimize", "optimize", {"model": REF, "solver": COARSE})
    curves = coarse_curves(REF)
    assert checks.check_u_star(out, curves, GAMMA, competitors) == []

    def non_monotone(rows):
        k = len(rows) // 2
        rows[k][1], rows[k + 5][1] = rows[k + 5][1], rows[k][1]
        return rows
    bad = faulty(out, tmp)
    edit_csv(bad / "u_star.csv", non_monotone)
    assert any("nondecreasing" in p for p in checks.check_u_star(bad, curves, GAMMA, competitors))

    bad = faulty(out, tmp)
    edit_csv(bad / "u_star.csv", lambda rows: [r for r in rows if not (r[0] == "100.0" and r[1] == "1.0")])
    assert any("not 1" in p for p in checks.check_u_star(bad, curves, GAMMA, competitors))

    bad = faulty(out, tmp)
    edit_json(bad / "optimize.json", total_cost=0.5)
    assert any("optimize.json" in p for p in checks.check_u_star(bad, curves, GAMMA, competitors))

    # the uniform distribution reported as the optimum
    bad = faulty(out, tmp)
    edit_csv(bad / "u_star.csv", lambda rows: [["0.0", "0.0", ""], ["100.0", "1.0", ""]])
    uniform = zp.continuum_cost(zp.ThresholdDistribution.uniform((0.0, 100.0)), curves, GAMMA)
    edit_json(bad / "optimize.json", total_cost=uniform.total)
    assert any("exceeds J[" in p for p in checks.check_u_star(bad, curves, GAMMA, competitors))


def test_fixed_point_bracket(tmp, competitors):
    out = run_cli(tmp, "optimize_c3", "optimize", {"model": C3, "solver": COARSE})
    assert checks.check_u_star(out, coarse_curves(C3), GAMMA, competitors) == []
    assert checks.check_bracket_halving(out) == []

    bad = faulty(out, tmp)
    data = json.loads((bad / "optimize.json").read_text())
    data["fixed_point_trace"][2]["v_up"] += 0.9 * (data["fixed_point_trace"][1]["v_up"]
                                                   - data["fixed_point_trace"][1]["v_down"])
    (bad / "optimize.json").write_text(json.dumps(data))
    assert checks.check_bracket_halving(bad) != []


def test_hjb(tmp):
    config = {"model": REF, "hjb": {"horizon": 4.0, "grid_step": 5.0, "time_step": 0.5}}
    out = run_cli(tmp, "hjb", "hjb", config)
    assert checks.check_hjb(out) == []

    def one_asymmetric_cell(rows):
        rows[25][3] = repr(float(rows[25][3]) + 1e-6)
        return rows
    bad = faulty(out, tmp)
    edit_csv(bad / "hjb_surfaces.csv", one_asymmetric_cell)
    assert any("asymmetric" in p for p in checks.check_hjb(bad))

    bad = faulty(out, tmp)
    edit_csv(bad / "hjb_surfaces.csv", lambda rows: [r[:8] + ["0"] for r in rows])
    assert any("no desynchronizing" in p for p in checks.check_hjb(bad))

    bad = faulty(out, tmp)
    edit_json(bad / "hjb.json", desynchronizing_cells=1)
    assert any("hjb.json reports" in p for p in checks.check_hjb(bad))


def test_compare(tmp):
    config = {"model": REF, "simulation": {"set_points": [100.0], "horizon_jumps": 20000,
                                           "seed": 3}}
    out = run_cli(tmp, "compare", "compare", config)
    env, params = instance(REF)
    dist = zp.solve_stationary(100.0, env, params)
    assert checks.check_compare(out, dist, 0.03) == []
    assert checks.check_compare(out, zp.solve_stationary(60.0, env, params), 0.03) != []


def test_simulate(tmp):
    z = [60.0, 70.0, 80.0]
    config = {"model": REF, "solver": {"gamma": GAMMA},
              "simulation": {"n_loads": 3, "set_points": z, "horizon_jumps": 10000, "seed": 4}}
    out = run_cli(tmp, "simulate", "simulate", config)
    env, params = instance(REF)
    dists = [zp.solve_stationary(v, env, params) for v in z]
    analytic = json.loads((out / "simulate.json").read_text())["total_cost"]
    assert checks.check_simulate(out, dists, analytic, 0.09, 0.45) == []

    bad = faulty(out, tmp)
    edit_json(bad / "simulate.json", total_cost=1.5 * analytic)
    assert any("relative gap" in p for p in checks.check_simulate(bad, dists, analytic, 0.09, 0.45))

    bad = faulty(out, tmp)
    edit_csv(bad / "occupation_cdf.csv", lambda rows: [r for r in rows if r[1] != "2"])
    assert any("no occupation rows" in p
               for p in checks.check_simulate(bad, dists, analytic, 0.09, 0.45))

    shifted = [zp.solve_stationary(v - 20.0, env, params) for v in z]
    assert any("occupation" in p for p in checks.check_simulate(out, shifted, analytic, 0.09, 0.45))


def test_heuristic(tmp):
    config = {"model": REF, "solver": {"gamma": GAMMA},
              "heuristic": {"n_loads": 10, "episode_jumps": 100, "initial_level": 0,
                            "max_level": 1, "delta_j": -1e9, "seed": 6}}
    out = run_cli(tmp, "heuristic", "heuristic", config)
    env, params = instance(REF)
    curves = zp.sensitivity_curves(env, params, workers=1)
    j_star = zp.continuum_cost(zp.project(zp.euler_lagrange(curves, GAMMA), curves),
                               curves, GAMMA).total
    assert checks.check_heuristic(out, curves, GAMMA, j_star, 122) == []
    # a cost machinery that overstates the optimum
    assert any("below the optimum" in p
               for p in checks.check_heuristic(out, curves, GAMMA, 10 * j_star, 122))

    bad = faulty(out, tmp)
    edit_csv(bad / "heuristic_distribution.csv",
             lambda rows: [rows[0], [rows[1][0], "0.9", ""]] + rows[2:])
    assert any("not admissible" in p for p in checks.check_heuristic(bad, curves, GAMMA,
                                                                     j_star, 122))

    bad = faulty(out, tmp)
    edit_csv(bad / "adaptation.csv", lambda rows: rows[:-1])
    edit_json(bad / "heuristic.json", best_j=1.0)
    problems = checks.check_heuristic(bad, curves, GAMMA, j_star, 122)
    assert any("adaptation steps" in p for p in problems)
    assert any("least j_hat" in p for p in problems)


def test_cftp(tmp):
    config = {"model": REF, "cftp": {"set_points": [70.0, 90.0], "n_samples": 300, "seed": 5}}
    out = run_cli(tmp, "cftp", "cftp", config)
    env, params = instance(REF)
    dists = [zp.solve_stationary(v, env, params) for v in (70.0, 90.0)]
    assert checks.check_cftp(out, dists, 1e-6) == []

    bad = faulty(out, tmp)
    edit_csv(bad / "samples.csv",
             lambda rows: [r[:2] + [repr(min(float(r[2]) + 15.0, 100.0))] + r[3:] for r in rows])
    assert any("KS distance" in p for p in checks.check_cftp(bad, dists, 1e-6))

    bad = faulty(out, tmp)
    edit_csv(bad / "samples.csv", lambda rows: rows[:-1])
    assert any("cftp.json says" in p for p in checks.check_cftp(bad, dists, 1e-6))


def test_digest_sees_one_byte(tmp):
    out = run_cli(tmp, "digest", "distribution", {"model": REF}, "--z", "80")
    before = checks.digest(out)
    bad = faulty(out, tmp)
    assert checks.digest(bad) == before
    with open(bad / "masses.csv", "a") as f:
        f.write(" ")
    assert checks.digest(bad) != before
