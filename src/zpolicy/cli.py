"""Command-line pipeline: experiment configs in, CSV/JSON artifacts out.

Every output embeds the config hash, the effective seed and the tool
version; rerunning a command with the same config and seed is
byte-identical (no timestamps, shortest-roundtrip float formatting).
Plotting is out of scope: CSV is the interchange format.

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
from .model import LoadParams, build_environment, power_split
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

_SCHEMA = {
    "model": {"h": _NUMBER, "c": _NUMBER, "comfort_levels": _NUMBERS,
              "wind_rates": _RATES, "comfort_rates": _RATES},
    "solver": {"gamma": _NUMBER, "grid_step": _NUMBER_OR_NULL,
               "z_grid_step": _NUMBER_OR_NULL, "tolerance": _NUMBER, "max_iter": _INTEGER},
    "simulation": {"n_loads": _INTEGER, "horizon_jumps": _INTEGER, "seed": _INTEGER,
                   "set_points": _NUMBERS_OR_NULL, "burn_in": _NUMBER,
                   "record_occupation": _BOOLEAN, "record_trace": _BOOLEAN},
    "heuristic": {"epsilon": _NUMBER, "delta_j": _NUMBER_OR_NULL, "initial_level": _INTEGER,
                  "max_level": _INTEGER, "episode_jumps": _INTEGER, "n_loads": _INTEGER,
                  "seed": _INTEGER, "shape": _STRING, "domain": _NUMBER_PAIR},
    "cftp": {"n_samples": _INTEGER, "set_points": _NUMBERS, "comfort_rates": _RATE_LISTS,
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
    if len(params.comfort_levels) != env.n_comfort:
        raise ValueError(f"comfort_levels needs one level per comfort state ({env.n_comfort})")
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


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])


def _write_columns(path: Path, header: list[str], columns):
    """The CSV that _write_csv writes for the rows of the flattened
    columns.  Each column's distinct values, told apart by bit pattern so
    that -0.0 and 0.0 stay apart, become text once: str() of the Python
    number, as csv writes it (repr and str agree on floats)."""
    texts = []
    for col in columns:
        flat = np.ravel(col)
        _, first, inverse = np.unique(flat.view(f"u{flat.itemsize}"),
                                      return_index=True, return_inverse=True)
        words = np.array(list(map(str, flat[first].tolist())), dtype=object)
        texts.append(words[inverse].tolist())
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        f.writelines(f"{row}\r\n" for row in map(",".join, zip(*texts)))


def _write_json(path: Path, payload: dict):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _dist_rows(u: ThresholdDistribution):
    rows = [(float(x), float(v), "") for x, v in zip(u.x, u.values)]
    for loc, left, right in u.jumps:
        rows.append((float(loc), float(right), f"jump from {left!r}"))
    return rows


def cmd_distribution(cfg, env, params, out: Path, seed, z: float | None = None) -> int:
    if z is None:
        z = cfg["model"]["comfort_levels"][-1]
    solver = cfg.get("solver", {})
    dist = solve_stationary(z, env, params, grid_step=solver.get("grid_step"))
    rows = []
    for seg in dist.segments:
        for s in range(env.n_states):
            for xv, dv in zip(seg.x, seg.densities[s]):
                rows.append((xv, s, dv))
    _write_csv(out / "densities.csv", ["x", "state", "density"], rows)
    _write_csv(out / "masses.csv", ["location", "state", "mass"],
               [(loc, s, m) for (loc, s), m in sorted(dist.point_masses.items())])
    _write_json(out / "distribution.json", {
        **_meta(cfg, seed), "z": z,
        "conservation_residual": verify_conservation(dist),
        "total_mass": dist.total_mass(),
        "mass_locations": dist.mass_locations(),
    })
    return 0


def cmd_curves(cfg, env, params, out: Path, seed) -> int:
    solver = cfg.get("solver", {})
    zg = default_z_grid(params, step=solver.get("z_grid_step"))
    curves = sensitivity_curves(env, params, z_grid=zg,
                                grid_step=solver.get("grid_step"))
    rows = zip(curves.z_grid, curves.phi, curves.phi_prime, curves.d1,
               *(curves.d_theta[j] for j in range(env.n_comfort)),
               curves.d_hat, curves.w)
    header = ["z", "phi", "phi_prime", "d1"] + \
        [f"d_theta{j + 1}" for j in range(env.n_comfort)] + ["d_hat", "w"]
    _write_csv(out / "curves.csv", header, rows)
    _write_json(out / "curves.json", {**_meta(cfg, seed),
                                      "w_nonpositive": curves.w_nonpositive})
    return 0


def cmd_optimize(cfg, env, params, out: Path, seed) -> int:
    solver = cfg.get("solver", {})
    gamma = _gamma(cfg)
    zg = default_z_grid(params, step=solver.get("z_grid_step"))
    curves = sensitivity_curves(env, params, z_grid=zg,
                                grid_step=solver.get("grid_step"))
    fp = fixed_point(env, params, gamma, curves=curves,
                     **_given(solver, "max_iter", tol="tolerance"))
    u_star = fp.projection.distribution
    cost = continuum_cost(u_star, curves, gamma)
    _write_csv(out / "u_star.csv", ["z", "u", "note"], _dist_rows(u_star))
    _write_json(out / "optimize.json", {
        **_meta(cfg, seed), "gamma": gamma,
        "power_cost": cost.power_cost, "discomfort_cost": cost.discomfort_cost,
        "total_cost": cost.total,
        "kappas": [float(k) for k in fp.projection.kappas],
        "pooled_intervals": [list(p) for p in fp.projection.pooled_intervals],
        "fixed_point_trace": [{"iteration": it, "coordinate": j, "v": v, "v_up": vu,
                               "v_down": vd} for (it, j, v, vu, vd) in fp.trace],
        "jumps": [list(j) for j in u_star.jumps],
    })
    return 0


def cmd_simulate(cfg, env, params, out: Path, seed) -> int:
    sim = cfg.get("simulation", {})
    gamma = _gamma(cfg)
    eff_seed = seed if seed is not None else sim.get("seed", 0)
    config = SimulationConfig(
        n_loads=sim.get("n_loads", 1),
        horizon_jumps=sim.get("horizon_jumps", 10000),
        seed=eff_seed,
        set_points=sim.get("set_points") or None,
        record_occupation=sim.get("record_occupation", True),
        **_given(sim, "burn_in", "record_trace"))
    result = simulate(config, env, params, gamma)
    _write_json(out / "simulate.json", {
        **_meta(cfg, eff_seed),
        "power_cost": result.empirical_cost.power_cost,
        "discomfort_cost": result.empirical_cost.discomfort_cost,
        "total_cost": result.empirical_cost.total,
        "set_points": [float(z) for z in result.set_points],
        "total_time": result.total_time, "n_segments": result.n_segments,
    })
    if result.trace_x is not None:
        n_rows, n = len(result.trace_times), config.n_loads
        x = result.trace_x.reshape(n_rows, n)
        wind = result.trace_wind.astype(np.int64)
        comfort = result.trace_comfort.astype(np.int64)
        wind_power, grid_power = power_split(
            x, result.set_points, np.asarray(params.comfort_levels)[comfort][:, None],
            params.h, params.c, params.wind_cooling_rates(env.n_wind)[wind][:, None],
            wind[:, None])
        _write_columns(out / "trace.csv",
                       ["t", "load", "x", "wind", "comfort", "grid_power", "wind_power"],
                       [np.repeat(result.trace_times, n), np.tile(np.arange(n), n_rows), x,
                        np.repeat(wind, n), np.repeat(comfort, n), grid_power, wind_power])
    if result.occupation_cdf is not None:
        edges, n = result.occupation_edges, config.n_loads
        _write_columns(out / "occupation_cdf.csv", ["x", "load", "cdf"],
                       [np.tile(edges, n), np.repeat(np.arange(n), len(edges)),
                        result.occupation_cdf])
    return 0


def cmd_compare(cfg, env, params, out: Path, seed) -> int:
    """Analytic stationary CDF against a long single-load simulation."""
    sim = cfg.get("simulation", {})
    eff_seed = seed if seed is not None else sim.get("seed", 0)
    zs = sim.get("set_points") or [params.theta_max]
    z = float(zs[0])
    dist = solve_stationary(z, env, params)
    config = SimulationConfig(n_loads=1, horizon_jumps=sim.get("horizon_jumps", 200000),
                              seed=eff_seed, set_points=np.array([z]),
                              record_occupation=True)
    result = simulate(config, env, params, _gamma(cfg))
    edges, per_load, _ = empirical_cdf(result)
    analytic = dist.cdf(edges)
    sup = float(np.max(np.abs(per_load[0] - analytic)))
    _write_csv(out / "cdf_comparison.csv", ["x", "empirical", "analytic"],
               zip(edges, per_load[0], analytic))
    _write_json(out / "compare.json", {**_meta(cfg, eff_seed), "z": z,
                                       "sup_cdf_distance": sup})
    return 0


def cmd_cftp(cfg, env, params, out: Path, seed) -> int:
    blk = cfg.get("cftp", {})
    gamma = _gamma(cfg)
    eff_seed = seed if seed is not None else blk.get("seed", 0)
    set_points = blk.get("set_points") or [params.theta_max]
    n = len(set_points)
    comfort_rates = blk.get("comfort_rates") or [cfg["model"]["comfort_rates"]] * n
    config = CftpConfig(
        wind_rates=tuple(cfg["model"]["wind_rates"]),
        load_params=tuple(params for _ in range(n)),
        comfort_rates=tuple(tuple(r) for r in comfort_rates),
        set_points=tuple(float(z) for z in set_points),
        seed=eff_seed, **_given(blk, "max_doublings"))
    n_samples = blk.get("n_samples", 1000)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    samples = cftp_samples(config, [np.random.default_rng(child_seed(eff_seed, k))
                                    for k in range(n_samples)])
    report = estimate_joint_cost(samples, config, gamma)
    _write_csv(out / "samples.csv",
               ["sample", "load", "temperature", "wind", "comfort"],
               [(k, i, s.temperatures[i], s.wind, int(s.comfort[i]))
                for k, s in enumerate(samples) for i in range(n)])
    u_emp = ThresholdDistribution.from_quantiles(
        np.array(set_points), domain=(0.0, params.theta_max))
    smooth = smooth_distribution(u_emp, blk.get("smoothing_bandwidth",
                                                params.theta_max / 20.0))
    _write_csv(out / "smoothed.csv", ["z", "u", "note"], _dist_rows(smooth))
    _write_json(out / "cftp.json", {
        **_meta(cfg, eff_seed), "n_samples": n_samples,
        "power_cost": report.power_cost, "discomfort_cost": report.discomfort_cost,
        "total_cost": report.total, "std_error": report.std_error,
    })
    return 0


def cmd_heuristic(cfg, env, params, out: Path, seed) -> int:
    blk = cfg.get("heuristic", {})
    gamma = _gamma(cfg)
    eff_seed = seed if seed is not None else blk.get("seed", 0)
    domain = tuple(blk.get("domain", (0.0, params.theta_max)))
    cost_fn = make_simulation_cost_fn(
        env, params, gamma, n_loads=blk.get("n_loads", 40),
        horizon_jumps=blk.get("episode_jumps", 20000), seed=eff_seed)
    best, trace = successive_refinement(
        cost_fn, seed=eff_seed, domain=domain,
        **_given(blk, "initial_level", "max_level", "epsilon", "delta_j", "shape"))
    _write_csv(out / "adaptation.csv", ["step", "level", "j_hat", "alphas"],
               [(k, lv, j, " ".join(repr(float(a)) for a in al))
                for (k, lv, al, j) in trace.steps])
    _write_csv(out / "heuristic_distribution.csv", ["z", "u", "note"],
               _dist_rows(best.to_threshold_distribution()))
    _write_json(out / "heuristic.json", {
        **_meta(cfg, eff_seed), "best_j": trace.best[1], "level": best.level,
        "alphas": [float(a) for a in best.alphas],
        "refinements": [list(r) for r in trace.refinements],
    })
    return 0


def cmd_hjb(cfg, env, params, out: Path, seed) -> int:
    blk = cfg.get("hjb", {})
    values, policy = solve_hjb(
        env, params, horizon=blk.get("horizon", 40.0),
        grid_step=blk.get("grid_step", params.theta_max / 50.0),
        **_given(blk, "time_step", "wind_power", "forced_power"))
    labels = classify_policy(policy, params, env)
    n_env, nx = env.n_states, len(values.x)
    _write_columns(out / "hjb_surfaces.csv",
                   ["env_state", "x1", "x2", "value", "wind1", "wind2",
                    "grid1", "grid2", "label"],
                   [np.repeat(np.arange(n_env), nx * nx),
                    np.tile(np.repeat(values.x, nx), n_env),
                    np.tile(values.x, n_env * nx), values.values,
                    policy.wind[..., 0], policy.wind[..., 1],
                    policy.grid[..., 0], policy.grid[..., 1], labels])
    _write_json(out / "hjb.json", {
        **_meta(cfg, seed), "horizon": values.horizon,
        "desynchronizing_cells": int((labels == 1).sum()),
        "synchronizing_cells": int((labels == -1).sum()),
    })
    return 0


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
        if args.command == "distribution":
            return cmd_distribution(cfg, env, params, out, args.seed, args.z)
        return _COMMANDS[args.command](cfg, env, params, out, args.seed)
    except errors.ZPolicyError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:   # JSONDecodeError is a ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
