"""Checks of the zpolicy CLI's artifacts.

Every check reads the files a command wrote and compares them with a
computation made outside the command (a closed form, an independent
stationary solve, the continuum cost of competing distributions) or with
a property the method must have (symmetry, monotonicity, bracket
halving).  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

# one-sided offset for evaluating an analytic CDF just left of an atom; the
# package's StationaryDistribution.cdf counts an atom from 1e-9 below it
_LEFT = 1e-7


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def digest(directory: Path) -> str:
    """Hash of every file name and content below ``directory``."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(directory)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# -- closed forms ------------------------------------------------------------


def birth_death_law(rates) -> np.ndarray:
    """Stationary law of a birth-death chain given as (up, down) for two
    states or as a list of (up, down) pairs: pi[k+1] / pi[k] = up_k / down_k."""
    rates = list(rates)
    pairs = [tuple(rates)] if np.isscalar(rates[0]) else [tuple(p) for p in rates]
    w = [1.0]
    for up, down in pairs:
        w.append(w[-1] * up / down)
    w = np.array(w)
    return w / w.sum()


def environment_law(model: dict) -> np.ndarray:
    """Joint law of independent wind and comfort chains, flat index
    wind * n_comfort + comfort."""
    return np.outer(birth_death_law(model["wind_rates"]),
                    birth_death_law(model["comfort_rates"])).ravel()


def dkw_bound(n: int, alpha: float, tests: int = 1) -> float:
    """Dvoretzky-Kiefer-Wolfowitz bound on the KS distance of n draws at
    level alpha, Bonferroni-corrected over ``tests`` marginals."""
    return math.sqrt(math.log(2.0 * tests / alpha) / (2.0 * n))


def ks_distance(samples, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a law that may have atoms; ``cdf`` is
    right-continuous and its left limits are taken just below each value."""
    xs = np.sort(np.asarray(samples, dtype=float))
    values, counts = np.unique(xs, return_counts=True)
    fn = np.cumsum(counts) / len(xs)
    fn_left = np.concatenate([[0.0], fn[:-1]])
    f = np.asarray(cdf(values), dtype=float)
    f_left = np.asarray(cdf(values - _LEFT), dtype=float)
    return float(max(np.abs(fn - f).max(), np.abs(fn_left - f_left).max()))


def random_steps(rng: np.random.Generator, domain: tuple[float, float], count: int):
    """Seeded competitors: monotone step functions with 1 to 7 steps."""
    from zpolicy.distributions import ThresholdDistribution
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 8))
        locs = np.sort(rng.uniform(domain[0], domain[1], k))
        vals = np.sort(rng.uniform(0.0, 1.0, k))
        out.append(ThresholdDistribution.step_function(locs, vals, domain=domain))
    return out


# -- analytic commands ---------------------------------------------------------


def check_distribution(out: Path, model: dict, tol_marginal: float) -> list[str]:
    """Conservation and mass from the artifact, and per-environment-state
    marginals (density integrals plus point masses) against the closed-form
    law of the two birth-death chains."""
    problems = []
    meta = read_json(out / "distribution.json")
    if not meta["conservation_residual"] <= 1e-8:
        problems.append(f"conservation residual {meta['conservation_residual']:.2e} > 1e-8")
    if not abs(meta["total_mass"] - 1.0) <= 1e-8:
        problems.append(f"total mass {meta['total_mass']!r} not 1 within 1e-8")
    law = environment_law(model)
    marginal = np.zeros(len(law))
    _, rows = read_csv(out / "densities.csv")
    # one run of rows per (segment, state): integrate each run by Simpson's
    # rule, whose error on the 0.25-wide cells is far below the tolerance
    run_x, run_d, run_state = [], [], None
    for x, state, dens in rows + [["nan", "-1", "nan"]]:
        state = int(state)
        if state != run_state and run_x:
            marginal[run_state] += float(simpson(run_d, x=run_x))
            run_x, run_d = [], []
        run_state = state
        run_x.append(float(x))
        run_d.append(float(dens))
    _, rows = read_csv(out / "masses.csv")
    for _loc, state, mass in rows:
        marginal[int(state)] += float(mass)
    gap = float(np.abs(marginal - law).max())
    if not gap <= tol_marginal:
        problems.append(f"state marginals {marginal.round(6).tolist()} differ from the "
                        f"birth-death law {law.round(6).tolist()} by {gap:.2e} > {tol_marginal:.0e}")
    return problems


def check_curves(out: Path, reference, params) -> list[str]:
    """Phi is zero up to Theta_1, nonnegative and nondecreasing; w is the
    weighted sum of the frontier curves; every column equals a serial
    rebuild of the curves (the thread pool must not change results)."""
    header, rows = read_csv(out / "curves.csv")
    data = np.array(rows, dtype=float)
    col = {name: data[:, k] for k, name in enumerate(header)}
    problems = []
    z, phi = col["z"], col["phi"]
    low = z <= params.comfort_levels[0]
    if np.abs(phi[low]).max(initial=0.0) > 1e-12:
        problems.append("phi nonzero below the lowest comfort level")
    if phi.min() < -1e-12 or np.diff(phi).min() < -1e-9:
        problems.append("phi negative or decreasing in z")
    n_c = len(params.comfort_levels)
    w = params.h ** 2 * col["d1"] + params.c ** 2 * sum(col[f"d_theta{j + 1}"] for j in range(n_c))
    if reference.d_hat_frontier.size == 0 and np.abs(w - col["w"]).max() > 1e-9 * max(1.0, np.abs(w).max()):
        problems.append("w differs from h^2 d1 + c^2 sum_j d_theta_j")
    ref = {"z": reference.z_grid, "phi": reference.phi, "phi_prime": reference.phi_prime,
           "d1": reference.d1, "d_hat": reference.d_hat, "w": reference.w,
           **{f"d_theta{j + 1}": reference.d_theta[j] for j in range(n_c)}}
    for name, values in ref.items():
        if col[name].shape != values.shape or \
                np.abs(col[name] - values).max() > 1e-12 * max(1.0, np.abs(values).max()):
            problems.append(f"curve {name} differs from the serial rebuild")
    return problems


def read_nodes(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Grid and values of a distribution CSV (z, u, note); jump rows,
    which carry a note, repeat nodes already listed."""
    _, rows = read_csv(path)
    nodes = np.array([(float(z), float(u)) for z, u, note in rows if not note])
    return nodes[:, 0], nodes[:, 1]


def check_u_star(out: Path, curves, gamma: float, competitors) -> list[str]:
    """u* nondecreasing in [0, 1] with u(0) = 0 and u(Theta_C) = 1, its
    reported cost matching the artifact, and no competitor cheaper."""
    from zpolicy.costs import continuum_cost
    from zpolicy.distributions import ThresholdDistribution
    top = curves.params.theta_max
    problems = []
    x, u = read_nodes(out / "u_star.csv")
    if np.diff(x).min() < 0 or np.diff(u).min() < -1e-12:
        problems.append("u* not nondecreasing")
    if u.min() < -1e-12 or u.max() > 1.0 + 1e-12:
        problems.append("u* outside [0, 1]")
    if x[0] != 0.0 or u[0] != 0.0:
        problems.append(f"u*(0) = {u[0]!r}, not 0")
    if x[-1] != top or u[-1] != 1.0:
        problems.append(f"u*(Theta_C) = {u[-1]!r}, not 1")
    if problems:
        return problems
    u_star = ThresholdDistribution(x=x, values=u, domain=(0.0, top))
    j_star = continuum_cost(u_star, curves, gamma).total
    reported = read_json(out / "optimize.json")["total_cost"]
    if abs(j_star - reported) > 1e-9 * max(1.0, abs(reported)):
        problems.append(f"cost of u_star.csv {j_star!r} differs from optimize.json {reported!r}")
    uniform = ThresholdDistribution.uniform((0.0, top))
    for label, other in [("uniform", uniform)] + [(f"random step {k}", d)
                                                  for k, d in enumerate(competitors)]:
        j_other = continuum_cost(other, curves, gamma).total
        if j_star > j_other + 1e-9 * max(1.0, abs(j_other)):
            problems.append(f"J[u*] = {j_star:.6g} exceeds J[{label}] = {j_other:.6g}")
            break
    return problems


def check_bracket_halving(out: Path) -> list[str]:
    """The fixed-point bracket [v_down, v_up] at least halves every iteration."""
    trace = read_json(out / "optimize.json")["fixed_point_trace"]
    widths = [t["v_up"] - t["v_down"] for t in trace]
    if len(widths) < 2:
        return ["fixed-point trace has fewer than two iterations"]
    for k, (a, b) in enumerate(zip(widths, widths[1:]), start=1):
        if b > a / 2 + 1e-15:
            return [f"bracket width {b:.3e} at iteration {k} is more than half of {a:.3e}"]
    return []


def check_hjb(out: Path) -> list[str]:
    """V(x1, x2) = V(x2, x1) in every environment state, and the policy has
    desynchronizing cells, counted again from the per-cell labels."""
    data = np.loadtxt(out / "hjb_surfaces.csv", delimiter=",", skiprows=1)
    n_env = int(data[:, 0].max()) + 1
    nx = int(round(math.sqrt(len(data) / n_env)))
    values = data[:, 3].reshape(n_env, nx, nx)
    problems = []
    asym = float(np.abs(values - values.transpose(0, 2, 1)).max())
    if not asym <= 1e-9:
        problems.append(f"value surface asymmetric by {asym:.2e} > 1e-9")
    desync = int((data[:, 8] == 1).sum())
    reported = read_json(out / "hjb.json")["desynchronizing_cells"]
    if desync == 0:
        problems.append("no desynchronizing cells")
    if desync != reported:
        problems.append(f"hjb.json reports {reported} desynchronizing cells, labels hold {desync}")
    return problems


# -- sampling commands ---------------------------------------------------------


def check_compare(out: Path, dist, tol: float) -> list[str]:
    """Single-load occupation CDF against an independent stationary solve."""
    _, rows = read_csv(out / "cdf_comparison.csv")
    data = np.array(rows, dtype=float)
    sup = float(np.abs(data[:, 1] - dist.cdf(data[:, 0])).max())
    return [] if sup <= tol else [f"occupation CDF sup distance {sup:.4f} > {tol}"]


def check_simulate(out: Path, dists, finite_cost: float, tol_cdf: float,
                   tol_cost: float) -> list[str]:
    """Each load's occupation CDF against solve_stationary(z_i), and the
    ensemble cost against the analytic finite-ensemble cost."""
    problems = []
    _, rows = read_csv(out / "occupation_cdf.csv")
    data = np.array(rows, dtype=float)
    worst = 0.0
    for i, dist in enumerate(dists):
        mine = data[data[:, 1] == i]
        if len(mine) == 0:
            problems.append(f"no occupation rows for load {i}")
            continue
        worst = max(worst, float(np.abs(mine[:, 2] - dist.cdf(mine[:, 0])).max()))
    if worst > tol_cdf:
        problems.append(f"occupation CDF sup distance {worst:.4f} > {tol_cdf}")
    cost = read_json(out / "simulate.json")["total_cost"]
    gap = abs(cost / finite_cost - 1.0)
    if not gap <= tol_cost:
        problems.append(f"simulated cost {cost:.5g} vs analytic {finite_cost:.5g}: "
                        f"relative gap {gap:.3f} > {tol_cost}")
    return problems


def check_heuristic(out: Path, curves, gamma: float, j_star: float,
                    episodes: int) -> list[str]:
    """The returned distribution is admissible and its analytic cost is not
    below the optimum J*; the adaptation ran its fixed number of episodes
    and reports the least cost of its trace as the best."""
    from zpolicy.costs import continuum_cost
    from zpolicy.distributions import ThresholdDistribution
    from zpolicy.errors import NotADistribution
    x, values = read_nodes(out / "heuristic_distribution.csv")
    try:
        u = ThresholdDistribution(x=x, values=values, domain=(0.0, curves.params.theta_max))
    except NotADistribution as exc:
        return [f"heuristic distribution not admissible: {exc}"]
    problems = []
    j = continuum_cost(u, curves, gamma).total
    if j < j_star - 1e-9 * abs(j_star):
        problems.append(f"heuristic cost {j:.6g} below the optimum {j_star:.6g}")
    _, rows = read_csv(out / "adaptation.csv")
    if len(rows) != episodes:
        problems.append(f"{len(rows)} adaptation steps, expected {episodes}")
    best = read_json(out / "heuristic.json")["best_j"]
    if rows and best != min(float(r[2]) for r in rows):
        problems.append(f"best_j {best!r} is not the least j_hat of the adaptation trace")
    return problems


def check_cftp(out: Path, dists, alpha: float) -> list[str]:
    """Each marginal's KS distance to solve_stationary(z_i) within the DKW
    bound at level alpha, Bonferroni-corrected over the loads."""
    n_samples = read_json(out / "cftp.json")["n_samples"]
    _, rows = read_csv(out / "samples.csv")
    data = np.array([(int(k), int(i), float(x)) for k, i, x, _w, _c in rows])
    problems = []
    bound = dkw_bound(n_samples, alpha, len(dists))
    for i, dist in enumerate(dists):
        temps = data[data[:, 1] == i, 2]
        if len(temps) != n_samples:
            problems.append(f"load {i}: {len(temps)} samples, cftp.json says {n_samples}")
            continue
        ks = ks_distance(temps, dist.cdf)
        if ks > bound:
            problems.append(f"load {i} (z={dist.z}): KS distance {ks:.4f} > DKW bound {bound:.4f}")
    return problems
