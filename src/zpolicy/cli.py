"""Command-line pipeline: experiment configs in, CSV/JSON artifacts out.

Each command ``cmd_<name>(args, cfg, env, params)`` computes and returns
``(seed, payload, tables)``: the seed its JSON reports, the payload of
``<name>.json``, and its CSV files as name -> (header, columns).  ``main``
writes them all, and only once the command has returned, so a command
that fails writes nothing.  Every JSON output embeds the config hash, the
effective seed and the tool version; rerunning a command with the same
config and seed is byte-identical (no timestamps, shortest-roundtrip float
formatting).  Plotting is out of scope: CSV is the interchange format.

Exit codes: 0 success, 1 usage/config error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, errors
from .cftp import CftpConfig, cftp_samples, estimate_joint_cost, smooth_distribution
from .costs import continuum_cost, default_z_grid, sensitivity_curves
from .distributions import ThresholdDistribution
from .heuristic import make_simulation_cost_fn, successive_refinement
from .hjb import classify_policy, solve_hjb
from .model import LoadParams, build_environment, child_rngs, power_split
# child_seed(seed, k) is the seed of cmd_cftp's sample k, which child_rngs
# builds for every sample at once; callers import child_seed from here
from .simulate import SimulationConfig, child_seed, empirical_cdf, simulate
from .stationary import solve_stationary, verify_conservation
from .variational import fixed_point


def _numbers(v, length=None) -> bool:
    return type(v) is list and all(type(x) in (int, float) for x in v) and length in (None, len(v))


def _rate_spec(v) -> bool:
    return _numbers(v, 2) or type(v) is list and all(_numbers(p, 2) for p in v)


# Each JSON type a config value can have: the words of its error message,
# and its test.  json.load gives exact types, so a boolean is never taken
# for a number.  A rate spec is an [up, down] pair or a list of such pairs,
# one per pair of adjacent states.  Null is accepted only by the keys whose
# library default is None.
_NUMBER = "a number", lambda v: type(v) in (int, float)
_NUMBER_OR_NULL = "a number or null", lambda v: v is None or type(v) in (int, float)
_INTEGER = "an integer", lambda v: type(v) is int
_NUMBERS = "a list of numbers", _numbers
_NUMBER_PAIR = "a list of two numbers", lambda v: _numbers(v, 2)
_NUMBERS_OR_NULL = "a list of numbers or null", lambda v: v is None or _numbers(v)
_RATES = "a rate spec", _rate_spec
_RATE_LISTS = "a list of rate specs", lambda v: type(v) is list and all(map(_rate_spec, v))
_BOOLEAN = "true or false", lambda v: type(v) is bool
_STRING = "a string", lambda v: type(v) is str


def _nonempty(kind):
    """The same JSON type without the empty list (a list of no loads)."""
    return "a nonempty " + kind[0][2:], lambda v: v != [] and kind[1](v)


_SCHEMA = {
    "model": {"h": _NUMBER, "c": _NUMBER, "comfort_levels": _NUMBERS,
              "wind_rates": _RATES, "comfort_rates": _RATES},
    "solver": {"gamma": _NUMBER, "grid_step": _NUMBER_OR_NULL,
               "z_grid_step": _NUMBER_OR_NULL, "tolerance": _NUMBER, "max_iter": _INTEGER},
    "simulation": {"n_loads": _INTEGER, "horizon_jumps": _INTEGER, "seed": _INTEGER,
                   "set_points": _nonempty(_NUMBERS_OR_NULL), "burn_in": _NUMBER,
                   "record_occupation": _BOOLEAN, "record_trace": _BOOLEAN},
    "heuristic": {"epsilon": _NUMBER, "delta_j": _NUMBER_OR_NULL, "initial_level": _INTEGER,
                  "max_level": _INTEGER, "episode_jumps": _INTEGER, "n_loads": _INTEGER,
                  "seed": _INTEGER, "shape": _STRING, "domain": _NUMBER_PAIR},
    "cftp": {"n_samples": _INTEGER, "set_points": _nonempty(_NUMBERS),
             "comfort_rates": _nonempty(_RATE_LISTS),
             "seed": _INTEGER, "max_doublings": _INTEGER, "smoothing_bandwidth": _NUMBER},
    "hjb": {"horizon": _NUMBER, "grid_step": _NUMBER, "time_step": _NUMBER_OR_NULL,
            "wind_power": _NUMBER_OR_NULL, "forced_power": _NUMBER_OR_NULL},
}


def load_config(path: str) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for block, keys in cfg.items():
        if block not in _SCHEMA:
            raise ValueError(f"unknown config block '{block}'")
        if not isinstance(keys, dict):
            raise ValueError(f"config block '{block}' must be a JSON object")
        for key, value in keys.items():
            if key not in _SCHEMA[block]:
                raise ValueError(f"unknown key '{key}' in '{block}'")
            kind, test = _SCHEMA[block][key]
            if not test(value):
                raise ValueError(f"'{block}.{key}' must be {kind}, got {json.dumps(value)}")
    if "model" not in cfg:
        raise ValueError("config needs a 'model' block")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build(cfg: dict):
    m = cfg["model"]
    env = build_environment(m["wind_rates"], m["comfort_rates"])
    params = LoadParams(h=m["h"], c=m["c"], comfort_levels=m["comfort_levels"])
    params.check_environment(env)
    return env, params


def _gamma(cfg: dict) -> float:
    """The discomfort weight, 0 unless the solver block sets it."""
    gamma = cfg.get("solver", {}).get("gamma", 0.0)
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    return gamma


def _given(block: dict, *keys, **renamed) -> dict:
    """The keyword arguments whose config keys ``block`` sets, so that the
    library's own defaults hold for the others (each key is its keyword's
    name, or keyword=config key)."""
    renamed.update(zip(keys, keys))
    return {name: block[key] for name, key in renamed.items() if key in block}


def _meta(cfg: dict, seed) -> dict:
    return {"config_hash": config_hash(cfg), "seed": seed, "version": __version__}


def _write_columns(path: Path, header: list[str], columns):
    """One CSV row per position of the flattened columns, each value as
    str() of its Python number, as csv writes it (repr and str agree on
    floats).  A numeric array's distinct values, told apart by bit pattern
    so that -0.0 and 0.0 stay apart, become text once; any other sequence
    is written value by value, so a Python int stays an int.  Nothing is
    quoted: no value may hold a comma, a quote or a line break."""
    texts = []
    for col in columns:
        if not isinstance(col, np.ndarray):
            texts.append(list(map(str, col)))
            continue
        flat = np.ravel(col)
        _, first, inverse = np.unique(flat.view(f"u{flat.itemsize}"),
                                      return_index=True, return_inverse=True)
        words = np.array(list(map(str, flat[first].tolist())), dtype=object)
        texts.append(words[inverse].tolist())
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        # every row ends in \r\n, as csv ends it; no rows, no body
        f.write("\r\n".join([*map(",".join, zip(*texts)), ""]))


def _write_json(path: Path, payload: dict):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _dist_table(u: ThresholdDistribution):
    """The z, u, note table of a threshold distribution: its nodes, then
    each jump at its location with its right value."""
    jumps = u.jumps
    return ["z", "u", "note"], [
        np.concatenate([u.x, [loc for loc, _, _ in jumps]]),
        np.concatenate([u.values, [right for _, _, right in jumps]]),
        [""] * len(u.x) + [f"jump from {left!r}" for _, left, _ in jumps]]


def cmd_distribution(args, cfg, env, params):
    z = cfg["model"]["comfort_levels"][-1] if args.z is None else args.z
    solver = cfg.get("solver", {})
    dist = solve_stationary(z, env, params, grid_step=solver.get("grid_step"))
    n = env.n_states
    blocks = [(np.tile(seg.x, n), np.repeat(np.arange(n), len(seg.x)), seg.densities)
              for seg in dist.segments]
    masses = sorted(dist.point_masses.items())
    return args.seed, {
        "z": z, "conservation_residual": verify_conservation(dist),
        "total_mass": dist.total_mass(), "mass_locations": dist.mass_locations(),
    }, {
        "densities": (["x", "state", "density"],
                      [np.concatenate(col, axis=None) for col in zip(*blocks)] or [[], [], []]),
        "masses": (["location", "state", "mass"],
                   [[loc for (loc, _), _ in masses], [s for (_, s), _ in masses],
                    np.array([m for _, m in masses])]),
    }


def cmd_curves(args, cfg, env, params):
    solver = cfg.get("solver", {})
    zg = default_z_grid(params, step=solver.get("z_grid_step"))
    curves = sensitivity_curves(env, params, z_grid=zg,
                                grid_step=solver.get("grid_step"))
    header = ["z", "phi", "phi_prime", "d1"] + \
        [f"d_theta{j + 1}" for j in range(env.n_comfort)] + ["d_hat", "w"]
    return args.seed, {"w_nonpositive": curves.w_nonpositive}, {
        "curves": (header, [curves.z_grid, curves.phi, curves.phi_prime, curves.d1,
                            *curves.d_theta, curves.d_hat, curves.w]),
    }


def cmd_optimize(args, cfg, env, params):
    solver = cfg.get("solver", {})
    gamma = _gamma(cfg)
    zg = default_z_grid(params, step=solver.get("z_grid_step"))
    curves = sensitivity_curves(env, params, z_grid=zg,
                                grid_step=solver.get("grid_step"))
    fp = fixed_point(env, params, gamma, curves=curves,
                     **_given(solver, "max_iter", tol="tolerance"))
    u_star = fp.projection.distribution
    cost = continuum_cost(u_star, curves, gamma)
    return args.seed, {
        "gamma": gamma,
        "power_cost": cost.power_cost, "discomfort_cost": cost.discomfort_cost,
        "total_cost": cost.total,
        "kappas": [float(k) for k in fp.projection.kappas],
        "pooled_intervals": [list(p) for p in fp.projection.pooled_intervals],
        "fixed_point_trace": [{"iteration": it, "coordinate": j, "v": v, "v_up": vu,
                               "v_down": vd} for (it, j, v, vu, vd) in fp.trace],
        "jumps": [list(j) for j in u_star.jumps],
    }, {"u_star": _dist_table(u_star)}


def cmd_simulate(args, cfg, env, params):
    """ValueError unless the simulation block gives set_points: the config
    has no other way to place the loads."""
    sim = cfg.get("simulation", {})
    if sim.get("set_points") is None:
        raise ValueError("'simulation.set_points' is required for simulate")
    gamma = _gamma(cfg)
    seed = args.seed if args.seed is not None else sim.get("seed", 0)
    config = SimulationConfig(
        n_loads=sim.get("n_loads", 1),
        horizon_jumps=sim.get("horizon_jumps", 10000),
        seed=seed,
        set_points=sim.get("set_points"),
        record_occupation=sim.get("record_occupation", True),
        **_given(sim, "burn_in", "record_trace"))
    result = simulate(config, env, params, gamma)
    tables = {}
    if result.trace_x is not None:
        n_rows, n = len(result.trace_times), config.n_loads
        x = result.trace_x.reshape(n_rows, n)
        wind = result.trace_wind.astype(np.int64)
        comfort = result.trace_comfort.astype(np.int64)
        wind_power, grid_power = power_split(
            x, result.set_points, np.asarray(params.comfort_levels)[comfort][:, None],
            params.h, params.c, params.wind_cooling_rates(env.n_wind)[wind][:, None],
            wind[:, None])
        tables["trace"] = (
            ["t", "load", "x", "wind", "comfort", "grid_power", "wind_power"],
            [np.repeat(result.trace_times, n), np.tile(np.arange(n), n_rows), x,
             np.repeat(wind, n), np.repeat(comfort, n), grid_power, wind_power])
    if result.occupation_cdf is not None:
        edges, n = result.occupation_edges, config.n_loads
        tables["occupation_cdf"] = (["x", "load", "cdf"], [
            np.tile(edges, n), np.repeat(np.arange(n), len(edges)), result.occupation_cdf])
    return seed, {
        "power_cost": result.empirical_cost.power_cost,
        "discomfort_cost": result.empirical_cost.discomfort_cost,
        "total_cost": result.empirical_cost.total,
        "set_points": [float(z) for z in result.set_points],
        "total_time": result.total_time, "n_segments": result.n_segments,
    }, tables


def cmd_compare(args, cfg, env, params):
    """Analytic stationary CDF against a long single-load simulation.
    ValueError unless the simulation block has one load and at most one
    set-point, since the comparison would ignore the rest."""
    sim = cfg.get("simulation", {})
    seed = args.seed if args.seed is not None else sim.get("seed", 0)
    zs = sim.get("set_points") or [params.theta_max]
    if len(zs) != 1:
        raise ValueError(f"'simulation.set_points' must hold one set-point for compare, "
                         f"got {len(zs)}")
    if sim.get("n_loads", 1) != 1:
        raise ValueError(f"'simulation.n_loads' must be 1 for compare, got {sim['n_loads']}")
    z = float(zs[0])
    dist = solve_stationary(z, env, params)
    config = SimulationConfig(n_loads=1, horizon_jumps=sim.get("horizon_jumps", 200000),
                              seed=seed, set_points=np.array([z]),
                              record_occupation=True, **_given(sim, "burn_in"))
    result = simulate(config, env, params, _gamma(cfg))
    edges, per_load, _ = empirical_cdf(result)
    analytic = dist.cdf(edges)
    return seed, {"z": z, "sup_cdf_distance": float(np.max(np.abs(per_load[0] - analytic)))}, {
        "cdf_comparison": (["x", "empirical", "analytic"], [edges, per_load[0], analytic]),
    }


def cmd_cftp(args, cfg, env, params):
    blk = cfg.get("cftp", {})
    gamma = _gamma(cfg)
    seed = args.seed if args.seed is not None else blk.get("seed", 0)
    set_points = blk.get("set_points", [params.theta_max])
    n = len(set_points)
    comfort_rates = blk.get("comfort_rates", [cfg["model"]["comfort_rates"]] * n)
    config = CftpConfig(
        wind_rates=tuple(cfg["model"]["wind_rates"]),
        load_params=tuple(params for _ in range(n)),
        comfort_rates=tuple(tuple(r) for r in comfort_rates),
        set_points=tuple(float(z) for z in set_points),
        seed=seed, **_given(blk, "max_doublings"))
    n_samples = blk.get("n_samples", 1000)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    # smoothing reads only the set-points, so a bad bandwidth fails before sampling
    u_emp = ThresholdDistribution.from_quantiles(
        np.array(set_points), domain=(0.0, params.theta_max))
    smooth = smooth_distribution(u_emp, blk.get("smoothing_bandwidth",
                                                params.theta_max / 20.0))
    samples = cftp_samples(config, child_rngs(seed, n_samples))
    report = estimate_joint_cost(samples, config, gamma)
    return seed, {
        "n_samples": n_samples,
        "power_cost": report.power_cost, "discomfort_cost": report.discomfort_cost,
        "total_cost": report.total, "std_error": report.std_error,
    }, {
        "samples": (["sample", "load", "temperature", "wind", "comfort"], [
            np.repeat(np.arange(len(samples)), n), np.tile(np.arange(n), len(samples)),
            np.array([s.temperatures for s in samples]),
            np.repeat([s.wind for s in samples], n),
            np.array([s.comfort for s in samples], dtype=np.int64)]),
        "smoothed": _dist_table(smooth),
    }


def cmd_heuristic(args, cfg, env, params):
    blk = cfg.get("heuristic", {})
    gamma = _gamma(cfg)
    seed = args.seed if args.seed is not None else blk.get("seed", 0)
    domain = tuple(blk.get("domain", (0.0, params.theta_max)))
    cost_fn = make_simulation_cost_fn(
        env, params, gamma, n_loads=blk.get("n_loads", 40),
        horizon_jumps=blk.get("episode_jumps", 20000), seed=seed)
    best, trace = successive_refinement(
        cost_fn, seed=seed, domain=domain,
        **_given(blk, "initial_level", "max_level", "epsilon", "delta_j", "shape"))
    step, level, alphas, j_hat = zip(*trace.steps)
    return seed, {
        "best_j": trace.best[1], "level": best.level,
        "alphas": [float(a) for a in best.alphas],
        "refinements": [list(r) for r in trace.refinements],
    }, {
        "adaptation": (["step", "level", "j_hat", "alphas"], [
            step, level, j_hat, [" ".join(repr(float(a)) for a in al) for al in alphas]]),
        "heuristic_distribution": _dist_table(best.to_threshold_distribution()),
    }


def cmd_hjb(args, cfg, env, params):
    blk = cfg.get("hjb", {})
    values, policy = solve_hjb(
        env, params, horizon=blk.get("horizon", 40.0),
        grid_step=blk.get("grid_step", params.theta_max / 50.0),
        **_given(blk, "time_step", "wind_power", "forced_power"))
    labels = classify_policy(policy, params)
    n_env, nx = env.n_states, len(values.x)
    return args.seed, {
        "horizon": values.horizon,
        "desynchronizing_cells": int((labels == 1).sum()),
        "synchronizing_cells": int((labels == -1).sum()),
    }, {
        "hjb_surfaces": (
            ["env_state", "x1", "x2", "value", "wind1", "wind2", "grid1", "grid2", "label"],
            [np.repeat(np.arange(n_env), nx * nx), np.tile(np.repeat(values.x, nx), n_env),
             np.tile(values.x, n_env * nx), values.values,
             policy.wind[..., 0], policy.wind[..., 1],
             policy.grid[..., 0], policy.grid[..., 1], labels]),
    }


_COMMANDS = {
    "distribution": cmd_distribution,
    "curves": cmd_curves,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "cftp": cmd_cftp,
    "heuristic": cmd_heuristic,
    "hjb": cmd_hjb,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zpolicy", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--z", type=float, default=None,
                        help="set-point for the distribution command")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        env, params = _build(cfg)
        seed, payload, tables = _COMMANDS[args.command](args, cfg, env, params)
        for name, (header, columns) in tables.items():
            _write_columns(out / f"{name}.csv", header, columns)
        _write_json(out / f"{args.command}.json", {**_meta(cfg, seed), **payload})
        return 0
    except errors.ZPolicyError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:   # JSONDecodeError is a ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
