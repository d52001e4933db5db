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
import numbers
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

_SCHEMA = {
    "model": {"h", "c", "comfort_levels", "wind_rates", "comfort_rates"},
    "solver": {"gamma", "grid_step", "z_grid_step", "tolerance", "max_iter"},
    "simulation": {"n_loads", "horizon_jumps", "seed", "set_points", "burn_in",
                   "record_occupation", "record_trace"},
    "heuristic": {"epsilon", "delta_j", "initial_level", "max_level",
                  "episode_jumps", "n_loads", "seed", "shape", "domain"},
    "cftp": {"n_samples", "set_points", "comfort_rates", "seed",
             "max_doublings", "smoothing_bandwidth"},
    "hjb": {"horizon", "grid_step", "time_step", "wind_power", "forced_power"},
}


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


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
        unknown = set(keys) - _SCHEMA[block]
        if unknown:
            raise ValueError(f"unknown keys in '{block}': {sorted(unknown)}")
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
    return env, params


def _gamma(cfg: dict) -> float:
    """The discomfort weight, 0 unless the solver block sets it."""
    gamma = cfg.get("solver", {}).get("gamma", 0.0)
    if not isinstance(gamma, numbers.Real):
        raise ValueError(f"gamma must be a number, got {gamma!r}")
    return gamma


def _given(block: dict, **keys) -> dict:
    """The keyword arguments whose config keys ``block`` sets, so that the
    library's own defaults hold for the others (keyword=config key)."""
    return {name: block[key] for name, key in keys.items() if key in block}


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


def cmd_distribution(cfg, out: Path, seed, z: float | None = None) -> int:
    env, params = _build(cfg)
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


def cmd_curves(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
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


def cmd_optimize(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
    solver = cfg.get("solver", {})
    gamma = _gamma(cfg)
    zg = default_z_grid(params, step=solver.get("z_grid_step"))
    curves = sensitivity_curves(env, params, z_grid=zg,
                                grid_step=solver.get("grid_step"))
    fp = fixed_point(env, params, gamma, curves=curves,
                     **_given(solver, tol="tolerance", max_iter="max_iter"))
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


def cmd_simulate(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
    sim = cfg.get("simulation", {})
    gamma = _gamma(cfg)
    eff_seed = seed if seed is not None else sim.get("seed", 0)
    config = SimulationConfig(
        n_loads=sim.get("n_loads", 1),
        horizon_jumps=sim.get("horizon_jumps", 10000),
        seed=eff_seed,
        set_points=np.array(sim["set_points"], dtype=float)
        if sim.get("set_points") else None,
        record_occupation=sim.get("record_occupation", True),
        record_trace=sim.get("record_trace", False),
        **_given(sim, burn_in="burn_in"))
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


def cmd_compare(cfg, out: Path, seed) -> int:
    """Analytic stationary CDF against a long single-load simulation."""
    env, params = _build(cfg)
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


def cmd_cftp(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
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
        seed=eff_seed, **_given(blk, max_doublings="max_doublings"))
    n_samples = blk.get("n_samples", 1000)
    if not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
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


def cmd_heuristic(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
    blk = cfg.get("heuristic", {})
    gamma = _gamma(cfg)
    eff_seed = seed if seed is not None else blk.get("seed", 0)
    domain = tuple(blk.get("domain", (0.0, params.theta_max)))
    cost_fn = make_simulation_cost_fn(
        env, params, gamma, n_loads=blk.get("n_loads", 40),
        horizon_jumps=blk.get("episode_jumps", 20000), seed=eff_seed)
    best, trace = successive_refinement(
        cost_fn, initial_level=blk.get("initial_level", 0),
        max_level=blk.get("max_level", 3), epsilon=blk.get("epsilon", 0.5),
        delta_j=blk.get("delta_j"), seed=eff_seed, domain=domain,
        shape=blk.get("shape", "constant"))
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


def cmd_hjb(cfg, out: Path, seed) -> int:
    env, params = _build(cfg)
    blk = cfg.get("hjb", {})
    values, policy = solve_hjb(
        env, params, horizon=blk.get("horizon", 40.0),
        grid_step=blk.get("grid_step", params.theta_max / 50.0),
        time_step=blk.get("time_step"), wind_power=blk.get("wind_power"),
        forced_power=blk.get("forced_power"))
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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail_usage(str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "distribution":
            return cmd_distribution(cfg, out, args.seed, args.z)
        return _COMMANDS[args.command](cfg, out, args.seed)
    except errors.ZPolicyError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        return _fail_usage(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
