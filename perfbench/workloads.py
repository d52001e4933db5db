"""The benchmark's three workloads: their CLI operations, the inputs made
from the seed, and the references their checks compare against.

Reference instance: Theta = (50, 100), h = 1, c = 1.1, wind rates
(0.04, 0.04), comfort rates (0.02, 0.02), gamma = 0.1.  C3 has comfort
levels (40, 70, 100); W3 has three wind states (off / half / full).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import zpolicy as zp

import checks

GAMMA = 0.1
REF = {"h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
       "wind_rates": [0.04, 0.04], "comfort_rates": [0.02, 0.02]}
C3 = {**REF, "comfort_levels": [40.0, 70.0, 100.0],
      "comfort_rates": [[0.02, 0.02], [0.02, 0.02]]}
W3 = {**REF, "wind_rates": [[0.04, 0.04], [0.04, 0.04]]}
FAST = {**REF, "wind_rates": [0.3, 0.3], "comfort_rates": [0.15, 0.15]}

# Check tolerances.  The sampling ones are set from the spread of each
# statistic over 46 to 61 seeds at these horizons (see README.md): a
# tolerance is at least twice the largest value seen there.
TOL_MARGINAL = 1e-8        # Simpson integration of the 400-cell density grid
TOL_COMPARE_CDF = 0.025    # 1 load, 1e5 jumps
TOL_SIMULATE_CDF = 0.09    # 3 loads, 1e4 jumps
TOL_N100_CDF = 0.12        # 100 loads, 3e3 jumps
TOL_SIMULATE_COST = 0.45   # relative to finite_cost, 3 loads at 1e4 jumps
TOL_N100_COST = 0.55       # relative to finite_cost, 100 loads at 3e3 jumps
# heuristic: levels 2 and 3 run their full 60 steps (a negative delta_j
# never stops a level early), so the work is the same on every seed
HEURISTIC_JUMPS = 300
HEURISTIC_EPISODES = 122
CFTP_ALPHA = 1e-6
# the W3 CFTP operation fails through a fault of the sampler, so its seed
# stays fixed: the failure must not depend on the run's seed
CFTP_W3_SEED = 90


@dataclass
class Op:
    """One CLI invocation.  ``check(out)`` lists the problems of its
    artifacts.  An operation with a ``known_fault`` fails today; it is
    counted as failed whenever it exits nonzero or its check fails, and
    its time is kept out of the end-to-end metrics."""

    name: str
    command: str
    config: dict
    check: Callable[[Path], list[str]]
    args: tuple[str, ...] = ()
    known_fault: str | None = None


def instance(model: dict):
    env = zp.build_environment(model["wind_rates"], model["comfort_rates"])
    params = zp.LoadParams(h=model["h"], c=model["c"],
                           comfort_levels=tuple(model["comfort_levels"]))
    return env, params


def child_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class _Solves:
    """Stationary laws by (instance, set-point), each solved once."""

    def __init__(self):
        self._cache = {}

    def __call__(self, model: dict, z: float):
        key = (id(model), float(z))
        if key not in self._cache:
            env, params = instance(model)
            self._cache[key] = zp.solve_stationary(float(z), env, params)
        return self._cache[key]


def analytic(seed: int) -> list[Op]:
    solver = {"gamma": GAMMA}
    curves = {}
    for key, model in (("ref", REF), ("c3", C3), ("w3", W3)):
        env, params = instance(model)
        curves[key] = zp.sensitivity_curves(env, params, workers=1)
    competitors = checks.random_steps(np.random.default_rng(seed), (0.0, 100.0), 50)
    _, params = instance(REF)

    def u_star(key):
        return lambda out: checks.check_u_star(out, curves[key], GAMMA, competitors)

    def fast_check(out):
        env, params = instance(FAST)
        return checks.check_u_star(out, zp.sensitivity_curves(env, params, workers=1),
                                   GAMMA, competitors)

    return [
        Op("distribution", "distribution", {"model": REF},
           lambda out: checks.check_distribution(out, REF, TOL_MARGINAL), args=("--z", "100")),
        Op("curves", "curves", {"model": REF, "solver": solver},
           lambda out: checks.check_curves(out, curves["ref"], params)),
        Op("optimize", "optimize", {"model": REF, "solver": solver}, u_star("ref")),
        Op("optimize_c3", "optimize", {"model": C3, "solver": solver},
           lambda out: u_star("c3")(out) + checks.check_bracket_halving(out)),
        Op("optimize_w3", "optimize", {"model": W3, "solver": solver}, u_star("w3")),
        Op("hjb", "hjb", {"model": REF, "hjb": {"horizon": 40.0, "grid_step": 1.0,
                                                 "time_step": 0.2}}, checks.check_hjb),
        Op("optimize_fast", "optimize", {"model": FAST, "solver": solver}, fast_check,
           known_fault="SingularSystem: expm(D^-1 Q L) overflows its growing modes "
                       "when switching is fast"),
    ]


def montecarlo(seed: int) -> list[Op]:
    solver = {"gamma": GAMMA}
    env, params = instance(REF)
    env_w3, _ = instance(W3)
    curves = zp.sensitivity_curves(env, params, workers=1)
    curves_w3 = zp.sensitivity_curves(env_w3, params, workers=1)
    u_star = zp.project(zp.euler_lagrange(curves, GAMMA), curves)
    j_star = zp.continuum_cost(u_star, curves, GAMMA).total
    z3 = [60.0, 70.0, 80.0]
    z100 = [float(z) for z in u_star.sample_quantiles(100)]
    solve = _Solves()
    d_cmp = solve(REF, 100.0)
    d3 = [solve(REF, z) for z in z3]
    d3_w3 = [solve(W3, z) for z in z3]
    d100 = [solve(REF, z) for z in z100]
    cost3 = zp.finite_cost(z3, env, params, GAMMA, curves=curves).total
    cost3_w3 = zp.finite_cost(z3, env_w3, params, GAMMA, curves=curves_w3).total
    cost100 = zp.finite_cost(z100, env, params, GAMMA, curves=curves).total

    def sim(k, n, z, jumps):
        return {"n_loads": n, "set_points": z, "horizon_jumps": jumps,
                "seed": child_seed(seed, k)}

    return [
        Op("compare", "compare", {"model": REF, "solver": solver,
                                  "simulation": sim(0, 1, [100.0], 100000)},
           lambda out: checks.check_compare(out, d_cmp, TOL_COMPARE_CDF)),
        Op("simulate", "simulate", {"model": REF, "solver": solver,
                                    "simulation": sim(1, 3, z3, 10000)},
           lambda out: checks.check_simulate(out, d3, cost3, TOL_SIMULATE_CDF,
                                             TOL_SIMULATE_COST)),
        Op("simulate_w3", "simulate", {"model": W3, "solver": solver,
                                       "simulation": sim(2, 3, z3, 10000)},
           lambda out: checks.check_simulate(out, d3_w3, cost3_w3, TOL_SIMULATE_CDF,
                                             TOL_SIMULATE_COST)),
        Op("simulate_n100", "simulate", {"model": REF, "solver": solver,
                                         "simulation": sim(3, 100, z100, 3000)},
           lambda out: checks.check_simulate(out, d100, cost100, TOL_N100_CDF,
                                             TOL_N100_COST)),
        Op("heuristic", "heuristic",
           {"model": REF, "solver": solver,
            "heuristic": {"n_loads": 100, "episode_jumps": HEURISTIC_JUMPS,
                          "initial_level": 2, "max_level": 3, "delta_j": -1e9,
                          "seed": child_seed(seed, 4)}},
           lambda out: checks.check_heuristic(out, curves, GAMMA, j_star,
                                              HEURISTIC_EPISODES)),
    ]


def cftp(seed: int) -> list[Op]:
    solve = _Solves()
    z2 = [70.0, 90.0]
    z10 = [float(z) for z in np.linspace(55.0, 95.0, 10)]
    d2 = [solve(REF, z) for z in z2]
    d10 = [solve(REF, z) for z in z10]
    d_w3 = [solve(W3, 90.0)]
    solver = {"gamma": GAMMA}
    return [
        Op("cftp", "cftp", {"model": REF, "solver": solver,
                            "cftp": {"set_points": z2, "n_samples": 600,
                                     "seed": child_seed(seed, 0)}},
           lambda out: checks.check_cftp(out, d2, CFTP_ALPHA)),
        Op("cftp_n10", "cftp", {"model": REF, "solver": solver,
                                "cftp": {"set_points": z10, "n_samples": 250,
                                         "seed": child_seed(seed, 1)}},
           lambda out: checks.check_cftp(out, d10, CFTP_ALPHA)),
        Op("cftp_w3", "cftp", {"model": W3, "solver": solver,
                               "cftp": {"set_points": [90.0], "n_samples": 1500,
                                        "seed": CFTP_W3_SEED}},
           lambda out: checks.check_cftp(out, d_w3, CFTP_ALPHA),
           known_fault="biased: cftp._advance_scalar cools at c in every wind state"),
    ]


# set-up of each workload: its operations, inputs made from the seed
WORKLOADS = {"analytic": analytic, "montecarlo": montecarlo, "cftp": cftp}
