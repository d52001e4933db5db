"""Layer cases of the traced run.

Every traced run, whatever its workload, times the same fixed cases
through the package's public functions, so each per-layer metric is
defined the same way in every workload's result.  The numbers are read
from the spans the tracer records around those calls.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics

import numpy as np

from workloads import C3, GAMMA, HEURISTIC_JUMPS, REF, W3, instance

# modules, not names: the tracer replaces the modules' attributes, and the
# package namespace binds ``simulate`` to the function of that name
(cftp, costs, heuristic, hjb, model, simulate, stationary, variational) = (
    importlib.import_module(f"zpolicy.{m}") for m in
    ("cftp", "costs", "heuristic", "hjb", "model", "simulate", "stationary", "variational"))

PATH_JUMPS = 20000
SIMULATE_CASES = ((1, 50000), (3, 5000), (100, 1000))   # (loads, jumps)
HJB_STEPS = 10


def observers() -> dict:
    """Values taken from results while tracing: solver health of every
    stationary solve.  Called before the tracer is installed, so the
    residual is computed by the untraced function."""
    verify = stationary.verify_conservation

    def conservation(tracer, dist):
        tracer.observed["conservation"].append(verify(dist))
    return {"stationary.solve_stationary": conservation}


def run_cases(tracer) -> dict[str, float]:
    env, params = instance(REF)
    env_w3, _ = instance(W3)
    env3, params3 = instance(C3)
    probes = {}

    def probe(name, fn):
        with tracer.span(f"probe.{name}") as sid:
            result = fn()
        probes[name] = sid
        return result

    probe("solve", lambda: [stationary.solve_stationary(100.0, env, params) for _ in range(20)])
    probe("solve_w3", lambda: [stationary.solve_stationary(100.0, env_w3, params)
                               for _ in range(20)])
    z_grid = costs.default_z_grid(params)
    raw = probe("sweep", lambda: stationary.point_mass_curves(env, params, z_grid, workers=1))
    probe("sweep_threaded", lambda: stationary.point_mass_curves(
        env, params, z_grid, workers=os.cpu_count() or 1))
    curves = probe("curves", lambda: costs.sensitivity_curves(env, params, raw=raw))
    u_el = variational.euler_lagrange(curves, GAMMA)
    u_star = probe("project", lambda: [variational.project_detailed(u_el, curves)
                                       for _ in range(20)])[-1].distribution
    probe("continuum", lambda: [costs.continuum_cost(u_star, curves, GAMMA) for _ in range(20)])
    curves3 = costs.sensitivity_curves(env3, params3, workers=1)
    fixed = probe("fixed_point", lambda: variational.fixed_point(env3, params3, GAMMA,
                                                                 curves=curves3))

    rng = np.random.default_rng(0)
    x, z = rng.uniform(0.0, 100.0, 100), np.sort(rng.uniform(0.0, 100.0, 100))
    probe("advance", lambda: [model.advance_temperatures(x, z, k % 2, (k // 2) % 2, 5.0, params)
                              for k in range(1000)])
    probe("path", lambda: simulate.sample_environment_path(env, PATH_JUMPS,
                                                           np.random.default_rng(1)))
    probe("path_w3", lambda: simulate.sample_environment_path(env_w3, PATH_JUMPS,
                                                              np.random.default_rng(1)))
    set_points = {1: [100.0], 3: [60.0, 70.0, 80.0], 100: u_star.sample_quantiles(100)}
    for n, jumps in SIMULATE_CASES:
        for occupation in (False, True):
            cfg = simulate.SimulationConfig(n_loads=n, horizon_jumps=jumps, seed=1,
                                            set_points=np.asarray(set_points[n], dtype=float),
                                            record_occupation=occupation)
            probe(f"simulate_n{n}_{occupation}",
                  lambda: simulate.simulate(cfg, env, params, GAMMA))

    cost_fn = heuristic.make_simulation_cost_fn(env, params, GAMMA, n_loads=100,
                                                horizon_jumps=HEURISTIC_JUMPS, seed=1)
    probe("heuristic", lambda: heuristic.successive_refinement(
        cost_fn, initial_level=0, max_level=1, delta_j=-1e9, max_steps_per_level=4,
        seed=1, domain=(0.0, params.theta_max)))

    def cftp_config(zs):
        n = len(zs)
        return cftp.CftpConfig(wind_rates=tuple(REF["wind_rates"]), load_params=(params,) * n,
                               comfort_rates=(tuple(REF["comfort_rates"]),) * n,
                               set_points=tuple(float(v) for v in zs), seed=1)

    def draw(cfg, n):
        return [cftp.cftp_sample(cfg, np.random.default_rng([1, k])) for k in range(n)]

    c2, c10 = cftp_config([70.0, 90.0]), cftp_config(np.linspace(55.0, 95.0, 10))
    s2 = probe("cftp_n2", lambda: draw(c2, 100))
    s10 = probe("cftp_n10", lambda: draw(c10, 20))
    probe("estimate", lambda: [cftp.estimate_joint_cost(s10, c10, GAMMA) for _ in range(10)])
    probe("hjb", lambda: hjb.solve_hjb(env, params, horizon=HJB_STEPS * 0.2, grid_step=1.0,
                                       time_step=0.2))

    children = tracer.children()

    def spans(probe_name, name):
        return tracer.descendants(probes[probe_name], children, name)

    def times(probe_name, name):
        return [tracer.duration(s) for s in spans(probe_name, name)]

    med = statistics.median
    # first horizon of cftp_sample: four times the slowest full traversal
    horizon0 = 4.0 * params.theta_max / min(params.c, params.h)
    m = {
        "stationary.solve_ms": 1e3 * med(times("solve", "stationary.solve_stationary")),
        "stationary.solve_w3_ms": 1e3 * med(times("solve_w3", "stationary.solve_stationary")),
        "stationary.sweep_s": sum(times("sweep", "stationary.point_mass_curves")),
        "stationary.sweep_threaded_s": sum(times("sweep_threaded", "stationary.point_mass_curves")),
        "stationary.solves": len(spans("sweep", "stationary.solve_stationary")),
        "stationary.conservation_max": max(tracer.observed["conservation"]),
        "costs.sensitivity_curves_self_s": sum(
            tracer.self_time(s, children) for s in spans("curves", "costs.sensitivity_curves")),
        "costs.continuum_cost_ms": 1e3 * med(times("continuum", "costs.continuum_cost")),
        "variational.isotonic_fit_ms": 1e3 * med(times("project", "variational.isotonic_fit")),
        "variational.project_ms": 1e3 * med(times("project", "variational.project_detailed")),
        "variational.fixed_point_s": sum(times("fixed_point", "variational.fixed_point")),
        "variational.fixed_point_iterations": fixed.iterations,
        "model.advance_temperatures_us": 1e6 * med(times("advance", "model.advance_temperatures")),
        "simulate.path_us_per_jump":
            1e6 * sum(times("path", "simulate.sample_environment_path")) / PATH_JUMPS,
        "simulate.path_w3_us_per_jump":
            1e6 * sum(times("path_w3", "simulate.sample_environment_path")) / PATH_JUMPS,
    }
    for n, jumps in SIMULATE_CASES:
        plain = sum(times(f"simulate_n{n}_False", "simulate.simulate"))
        m[f"simulate.us_per_jump_n{n}"] = 1e6 * plain / jumps
        if n > 1:
            with_occupation = sum(times(f"simulate_n{n}_True", "simulate.simulate"))
            m[f"simulate.occupation_us_per_jump_n{n}"] = 1e6 * (with_occupation - plain) / jumps
    episodes = times("heuristic", "heuristic.estimate_cost")
    m["heuristic.episodes"] = len(episodes)
    m["heuristic.ms_per_episode"] = 1e3 * med(episodes)
    m["cftp.ms_per_sample_n2"] = 1e3 * sum(times("cftp_n2", "cftp.cftp_sample")) / len(s2)
    m["cftp.ms_per_sample_n10"] = 1e3 * sum(times("cftp_n10", "cftp.cftp_sample")) / len(s10)
    m["cftp.doublings_mean"] = statistics.fmean(math.log2(s.horizon / horizon0) for s in s2 + s10)
    m["cftp.estimate_joint_cost_ms"] = 1e3 * med(times("estimate", "cftp.estimate_joint_cost"))
    m["hjb.ms_per_step"] = 1e3 * sum(times("hjb", "hjb.solve_hjb")) / HJB_STEPS
    return m
