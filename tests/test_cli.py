import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zpolicy.cli import _SCHEMA, main


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "model": {"h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
                  "wind_rates": [0.04, 0.04], "comfort_rates": [0.02, 0.02]},
        "solver": {"gamma": 0.1, "z_grid_step": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _read(path):
    return json.loads(Path(path).read_text())


def test_distribution_command(tmp_path, ref_env):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["distribution", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "densities.csv").exists()
    assert (out / "masses.csv").exists()
    rep = _read(out / "distribution.json")
    assert rep["conservation_residual"] <= 1e-8
    assert rep["total_mass"] == pytest.approx(1.0, abs=1e-8)
    assert len(rep["mass_locations"]) == 3
    assert "config_hash" in rep and "version" in rep


def test_distribution_out_of_range_exit_code(tmp_path):
    cfg = _write_config(tmp_path)
    rc = main(["distribution", "--config", str(cfg),
               "--out", str(tmp_path / "o"), "--z", "150.0"])
    assert rc == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, solver={"gamma": 0.1, "bogus": 1})
    rc = main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_three_wind_state_distribution(tmp_path):
    cfg = _write_config(tmp_path, model={
        "h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
        "wind_rates": [[0.04, 0.04], [0.04, 0.04]],
        "comfort_rates": [0.02, 0.02]})
    out = tmp_path / "out"
    assert main(["distribution", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "densities.csv").read_text().splitlines()[1:]
    states = {int(line.split(",")[1]) for line in lines}
    assert states == set(range(6))


def test_optimize_binary_reference(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "optimize.json")
    assert rep["total_cost"] > 0
    assert (out / "u_star.csv").exists()


def test_optimize_gamma_zero_lists_jumps(tmp_path):
    # gamma = 0 is the pooled case: the plateau ends with a jump to 1 at
    # the top comfort level, recorded explicitly
    cfg = _write_config(tmp_path, solver={"gamma": 0.0, "z_grid_step": 1.0})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "optimize.json")
    assert rep["discomfort_cost"] >= 0.0
    assert rep["pooled_intervals"]          # the motivating pooled case
    assert any(loc == 100.0 for loc, _a, _b in rep["jumps"])


def test_optimize_three_levels_bracket_halving(tmp_path):
    cfg = _write_config(tmp_path, model={
        "h": 1.0, "c": 1.1, "comfort_levels": [40.0, 70.0, 100.0],
        "wind_rates": [0.04, 0.04],
        "comfort_rates": [[0.02, 0.02], [0.02, 0.02]]})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "optimize.json")
    trace = rep["fixed_point_trace"]
    assert trace
    widths = [t["v_up"] - t["v_down"] for t in trace]
    assert all(b <= a / 2 + 1e-12 for a, b in zip(widths[:-1], widths[1:]))
    from zpolicy import (
        LoadParams, build_environment, default_z_grid, fixed_point, sensitivity_curves,
    )
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(40.0, 70.0, 100.0))
    env = build_environment([0.04, 0.04], [[0.02, 0.02], [0.02, 0.02]])
    curves = sensitivity_curves(env, params, z_grid=default_z_grid(params, step=1.0))
    proj = fixed_point(env, params, 0.1, curves=curves).projection
    assert rep["kappas"] == [float(k) for k in proj.kappas]
    assert rep["pooled_intervals"] == [list(p) for p in proj.pooled_intervals]


def test_simulate_reproducible_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, simulation={
        "n_loads": 3, "horizon_jumps": 3000, "seed": 5,
        "set_points": [60.0, 70.0, 80.0], "record_trace": True})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("simulate.json", "trace.csv", "occupation_cdf.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_reports_cdf_distance(tmp_path):
    cfg = _write_config(tmp_path, simulation={
        "n_loads": 1, "horizon_jumps": 150000, "seed": 2,
        "set_points": [100.0]})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "compare.json")
    assert rep["sup_cdf_distance"] <= 0.05
    assert (out / "cdf_comparison.csv").exists()


def test_cftp_command(tmp_path):
    cfg = _write_config(tmp_path, cftp={
        "n_samples": 40, "set_points": [70.0, 90.0], "seed": 4})
    out = tmp_path / "out"
    assert main(["cftp", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "cftp.json")
    assert rep["n_samples"] == 40
    assert np.isfinite(rep["std_error"])
    assert (out / "samples.csv").exists()
    assert (out / "smoothed.csv").exists()


def test_heuristic_command(tmp_path):
    cfg = _write_config(tmp_path, heuristic={
        "epsilon": 0.5, "initial_level": 0, "max_level": 1,
        "episode_jumps": 2500, "n_loads": 20, "seed": 3})
    out = tmp_path / "out"
    assert main(["heuristic", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "heuristic.json")
    assert np.isfinite(rep["best_j"])
    assert (out / "adaptation.csv").exists()


def test_hjb_command(tmp_path):
    cfg = _write_config(tmp_path, hjb={
        "horizon": 10.0, "grid_step": 10.0, "time_step": 2.0})
    out = tmp_path / "out"
    assert main(["hjb", "--config", str(cfg), "--out", str(out)]) == 0
    rep = _read(out / "hjb.json")
    assert rep["synchronizing_cells"] > 0
    assert (out / "hjb_surfaces.csv").exists()


@pytest.mark.parametrize("bad", [
    {"horizon": 0.0}, {"horizon": -1.0}, {"time_step": -1.0},
    {"time_step": 0.0}, {"grid_step": 0.0}, {"wind_power": -1.0},
    {"forced_power": -1.0},
])
def test_hjb_bad_config_is_usage_error(tmp_path, bad):
    cfg = _write_config(tmp_path, hjb={
        "horizon": 10.0, "grid_step": 10.0, "time_step": 2.0, **bad})
    assert main(["hjb", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_hjb_surfaces_match_row_by_row_writer(tmp_path):
    from zpolicy import classify_policy, solve_hjb
    from zpolicy.cli import _build, _write_csv, load_config

    cfg = _write_config(tmp_path, model={
        "h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
        "wind_rates": [[0.04, 0.04], [0.04, 0.04]],
        "comfort_rates": [0.02, 0.02]},
        hjb={"horizon": 10.0, "grid_step": 5.0, "time_step": 1.0})
    out = tmp_path / "out"
    assert main(["hjb", "--config", str(cfg), "--out", str(out)]) == 0

    env, params = _build(load_config(str(cfg)))
    values, policy = solve_hjb(env, params, horizon=10.0, grid_step=5.0,
                               time_step=1.0)
    labels = classify_policy(policy, params, env)
    rows = []
    for e in range(env.n_states):
        for i, x1 in enumerate(values.x):
            for j, x2 in enumerate(values.x):
                rows.append((e, x1, x2, values.values[e, i, j],
                             policy.wind[e, i, j, 0], policy.wind[e, i, j, 1],
                             policy.grid[e, i, j, 0], policy.grid[e, i, j, 1],
                             int(labels[e, i, j])))
    _write_csv(tmp_path / "rows.csv",
               ["env_state", "x1", "x2", "value", "wind1", "wind2",
                "grid1", "grid2", "label"], rows)
    assert (out / "hjb_surfaces.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _run_cli(*argv):
    """The CLI run as ``python -m zpolicy.cli`` in a child process."""
    import zpolicy
    # the child imports the package the tests import, installed or not
    src = str(Path(zpolicy.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "zpolicy.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point(tmp_path):
    cfg = _write_config(tmp_path)
    proc = _run_cli("distribution", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0


def test_deterministic_outputs_across_commands(tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        assert main(["curves", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "curves.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("simulation, code", [
    ({"n_loads": 0, "horizon_jumps": 100}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "set_points": [150.0]}, 2),
    ({"n_loads": 1, "horizon_jumps": 100, "set_points": [float("nan")]}, 2),
    ({"n_loads": 1, "horizon_jumps": 0}, 1),
    ({"n_loads": 1, "horizon_jumps": -5}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "burn_in": 1.0}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "burn_in": 1.5}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "burn_in": -0.1}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "burn_in": float("nan")}, 1),
    ({"n_loads": 1, "horizon_jumps": 100.5, "set_points": [60.0]}, 1),
    ({"n_loads": 1, "horizon_jumps": 100, "seed": "3"}, 1),
])
def test_simulate_bad_config_exit_codes(tmp_path, simulation, code):
    cfg = _write_config(tmp_path, simulation=simulation)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code


_REF_MODEL = {"h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
              "wind_rates": [0.04, 0.04], "comfort_rates": [0.02, 0.02]}
# small blocks for the commands that read each block, so that a config
# which gets past the checks still runs quickly
_SMALL = {"solver": {"gamma": 0.1, "z_grid_step": 5.0},
          "simulation": {"n_loads": 1, "horizon_jumps": 100, "set_points": [80.0]},
          "heuristic": {"max_level": 0, "episode_jumps": 100, "n_loads": 2},
          "cftp": {"n_samples": 2, "set_points": [70.0]},
          "hjb": {"horizon": 1.0, "grid_step": 10.0}}


def _text(block=None, model=None, **keys):
    """Config text: the reference model, and ``block`` with its small keys
    overridden by ``keys``."""
    cfg = {"model": {**_REF_MODEL, **(model or {})}}
    if block:
        cfg[block] = {**_SMALL[block], **keys}
    return json.dumps(cfg)


_MALFORMED = {
    "top_level_list": ("simulate", "[]"),
    "block_not_object": ("simulate", json.dumps({"model": 5})),
    "h_not_a_number": ("simulate", _text(model={"h": "x"})),
    "h_null": ("simulate", _text(model={"h": None})),
    "comfort_levels_not_a_list": ("simulate", _text(model={"comfort_levels": 5})),
    "wind_rates_not_a_list": ("simulate", _text(model={"wind_rates": 5})),
    "n_loads_a_string": ("simulate", _text("simulation", n_loads="3")),
    "hjb_horizon_a_string": ("hjb", _text("hjb", horizon="2")),
    "cftp_n_samples_a_string": ("cftp", _text("cftp", n_samples="3")),
    "heuristic_epsilon_a_string": ("heuristic", _text("heuristic", epsilon="x")),
    "solver_gamma_a_string": ("optimize", _text("solver", gamma="x")),
    # wrong types and shapes that would fail deep inside a command
    "cftp_max_doublings_a_string": ("cftp", _text("cftp", max_doublings="3")),
    "cftp_comfort_rates_a_number": ("cftp", _text("cftp", comfort_rates=5)),
    "cftp_set_points_a_number": ("cftp", _text("cftp", set_points=5)),
    "heuristic_initial_level_a_string": ("heuristic", _text("heuristic", initial_level="x")),
    "heuristic_max_level_a_string": ("heuristic", _text("heuristic", max_level="x")),
    "heuristic_delta_j_a_string": ("heuristic", _text("heuristic", delta_j="x")),
    "heuristic_domain_a_number": ("heuristic", _text("heuristic", domain=5)),
    "solver_grid_step_a_string": ("distribution", _text("solver", grid_step="x")),
    "solver_z_grid_step_a_string": ("curves", _text("solver", z_grid_step="x")),
    "solver_z_grid_step_zero": ("curves", _text("solver", z_grid_step=0)),
    "one_comfort_level_on_two_state_chain": ("curves", _text(model={"comfort_levels": [100.0]})),
    # values a command would run with, silently
    "cftp_n_samples_true": ("cftp", _text("cftp", n_samples=True)),
    "hjb_horizon_true": ("hjb", _text("hjb", horizon=True)),
    "solver_tolerance_a_string": ("optimize", _text("solver", tolerance="x")),
    "solver_max_iter_a_string": ("optimize", _text("solver", max_iter="x")),
    "simulation_record_occupation_one": ("simulate", _text("simulation", record_occupation=1)),
    "solver_grid_step_zero": ("distribution", _text("solver", grid_step=0)),
    "solver_gamma_negative": ("optimize", _text("solver", gamma=-1)),
    "solver_gamma_nan": ("optimize", _text("solver", gamma=float("nan"))),
    "three_comfort_levels_on_two_state_chain": (
        "curves", _text(model={"comfort_levels": [30.0, 60.0, 100.0]})),
    # bad values a command would report as a computation failure (exit 2)
    "cftp_n_samples_zero": ("cftp", _text("cftp", n_samples=0)),
    "cftp_n_samples_negative": ("cftp", _text("cftp", n_samples=-1)),
    "solver_z_grid_step_negative": ("curves", _text("solver", z_grid_step=-1)),
    # NaN, which passes a range check written as a rejecting comparison
    "comfort_level_nan": ("distribution", _text(model={"comfort_levels": [float("nan"), 100.0]})),
    "cftp_smoothing_bandwidth_nan": ("cftp", _text("cftp", smoothing_bandwidth=float("nan"))),
}


@pytest.mark.parametrize("command, text", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_config_is_usage_error(tmp_path, command, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    proc = _run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("block, key, value, word", [
    ("heuristic", "domain", [0.0], "domain"),
    ("heuristic", "domain", [100, 0], "domain"),
    ("heuristic", "domain", [50.0, 50.0], "domain"),
    ("solver", "tolerance", float("nan"), "tol"),
    ("solver", "tolerance", 0, "tol"),
    ("solver", "tolerance", -1, "tol"),
])
def test_bad_range_is_usage_error_that_names_its_key(tmp_path, capsys, block, key, value, word):
    cfg = tmp_path / "config.json"
    cfg.write_text(_text(block, **{key: value}))
    assert main([_READER[block], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ")
    assert word in err


# one value of the wrong JSON type for every config key, each as close to
# a valid one as JSON allows: a boolean where a number goes, a number
# where a boolean goes, a boolean inside a list of numbers
_WRONG_TYPE = {
    "model": {"h": True, "c": True, "comfort_levels": [True, 100.0],
              "wind_rates": [True, 0.04], "comfort_rates": [[0.02, True]]},
    "solver": {"gamma": True, "grid_step": True, "z_grid_step": True,
               "tolerance": True, "max_iter": 60.0},
    "simulation": {"n_loads": True, "horizon_jumps": 100.0, "seed": True,
                   "set_points": [True], "burn_in": True,
                   "record_occupation": 1, "record_trace": 0},
    "heuristic": {"epsilon": True, "delta_j": True, "initial_level": True,
                  "max_level": False, "episode_jumps": True, "n_loads": True,
                  "seed": 3.0, "shape": 5, "domain": [0.0, True]},
    "cftp": {"n_samples": True, "set_points": [True], "comfort_rates": [[True, 0.02]],
             "seed": True, "max_doublings": True, "smoothing_bandwidth": True},
    "hjb": {"horizon": True, "grid_step": True, "time_step": True,
            "wind_power": True, "forced_power": False},
}
_READER = {"model": "curves", "solver": "optimize", "simulation": "simulate",
           "heuristic": "heuristic", "cftp": "cftp", "hjb": "hjb"}


@pytest.mark.parametrize("block, key", [(b, k) for b, keys in _SCHEMA.items() for k in keys])
def test_wrong_json_type_is_usage_error(tmp_path, capsys, block, key):
    text = _text(model={key: _WRONG_TYPE[block][key]}) if block == "model" else \
        _text(block, **{key: _WRONG_TYPE[block][key]})
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([_READER[block], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: '{block}.{key}' must be ")


def test_workers_flag_is_gone(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--workers", "2"])


@pytest.mark.parametrize("cftp, code", [
    ({"set_points": [150.0]}, 2),
    ({"set_points": [70.0, -5.0]}, 2),
    ({"set_points": [float("nan")]}, 2),
    ({"set_points": [70.0, 90.0], "comfort_rates": [[0.02, 0.02]]}, 1),
    ({"set_points": [70.0], "comfort_rates": [[[0.02, 0.02], [0.02, 0.02]]]}, 1),
    ({"set_points": [70.0], "max_doublings": 0}, 1),
])
def test_cftp_bad_config_exit_codes(tmp_path, cftp, code):
    cfg = _write_config(tmp_path, cftp={"n_samples": 2, **cftp})
    assert main(["cftp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code


@pytest.mark.parametrize("hjb, expected", [
    # neither set: the old default, bit for bit
    ({}, 0.9 * (100.0 / 50.0) / (1.0 + 2 * 1.1 + 1.0)),
    ({"grid_step": 1.0}, 0.9 * 1.0 / (1.0 + 2 * 1.1 + 1.0)),
    ({"wind_power": 0.7}, 0.9 * 2.0 / (1.0 + 1.1 + 0.7)),
    ({"grid_step": 1.0, "wind_power": 3.0}, 0.9 * 1.0 / (1.0 + 1.1 + 3.0)),
])
def test_hjb_default_time_step_follows_grid_and_wind(tmp_path, monkeypatch, hjb, expected):
    from zpolicy import cli
    seen = {}
    solve = cli.solve_hjb

    def spy(*args, **kwargs):
        values, policy = solve(*args, **kwargs)
        seen["time_step"] = values.time_step
        return values, policy

    monkeypatch.setattr(cli, "solve_hjb", spy)
    cfg = _write_config(tmp_path, hjb={"horizon": 1.0, **hjb})
    assert main(["hjb", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert seen["time_step"] == expected


def test_trace_matches_row_by_row_power_split(tmp_path):
    # three wind states, so the intermediate state's grid top-up appears
    from zpolicy.cli import _build, _write_csv, load_config
    from zpolicy.model import power_split

    cfg = _write_config(tmp_path, model={
        "h": 1.0, "c": 1.1, "comfort_levels": [50.0, 100.0],
        "wind_rates": [[0.04, 0.04], [0.04, 0.04]],
        "comfort_rates": [0.02, 0.02]},
        simulation={"n_loads": 3, "horizon_jumps": 2000, "seed": 5,
                    "set_points": [60.0, 70.0, 80.0], "record_trace": True})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    from zpolicy import SimulationConfig, simulate
    env, params = _build(load_config(str(cfg)))
    res = simulate(SimulationConfig(n_loads=3, horizon_jumps=2000, seed=5,
                                    set_points=np.array([60.0, 70.0, 80.0]),
                                    record_occupation=True, record_trace=True),
                   env, params, 0.1)
    rows, top_ups = [], 0
    for k, t in enumerate(res.trace_times):
        wind, comfort = int(res.trace_wind[k]), int(res.trace_comfort[k])
        for i in range(3):
            wind_power, grid_power = power_split(
                float(res.trace_x[k, i]), float(res.set_points[i]),
                params.comfort_levels[comfort], params.h, params.c,
                float(params.wind_cooling_rates(env.n_wind)[wind]), wind)
            top_ups += wind == 1 and grid_power > 0
            rows.append((t, i, res.trace_x[k, i], wind, comfort,
                         float(grid_power), float(wind_power)))
    _write_csv(tmp_path / "rows.csv", ["t", "load", "x", "wind", "comfort",
                                       "grid_power", "wind_power"], rows)
    assert top_ups > 0
    assert (out / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_occupation_csv_matches_row_by_row_writer(tmp_path):
    from zpolicy.cli import _write_csv
    cfg = _write_config(tmp_path, simulation={
        "n_loads": 100, "horizon_jumps": 300, "seed": 4,
        "set_points": [float(z) for z in np.linspace(30.0, 100.0, 100)]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    from zpolicy import SimulationConfig, simulate
    from zpolicy.cli import _build, load_config
    env, params = _build(load_config(str(cfg)))
    res = simulate(SimulationConfig(n_loads=100, horizon_jumps=300, seed=4,
                                    set_points=np.linspace(30.0, 100.0, 100),
                                    record_occupation=True), env, params, 0.1)
    rows = [(e, i, v) for i in range(100)
            for e, v in zip(res.occupation_edges, res.occupation_cdf[i])]
    assert len(rows) == 100 * 401
    _write_csv(tmp_path / "rows.csv", ["x", "load", "cdf"], rows)
    assert (out / "occupation_cdf.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("command, block, spied, key, keyword, value", [
    ("optimize", "solver", "fixed_point", "tolerance", "tol", 1e-4),
    ("optimize", "solver", "fixed_point", "max_iter", "max_iter", 7),
    ("simulate", "simulation", "SimulationConfig", "burn_in", "burn_in", 0.25),
    ("cftp", "cftp", "CftpConfig", "max_doublings", "max_doublings", 5),
    ("simulate", "simulation", "SimulationConfig", "record_trace", "record_trace", True),
    ("heuristic", "heuristic", "successive_refinement", "initial_level", "initial_level", 1),
    ("heuristic", "heuristic", "successive_refinement", "max_level", "max_level", 1),
    ("heuristic", "heuristic", "successive_refinement", "epsilon", "epsilon", 0.3),
    ("heuristic", "heuristic", "successive_refinement", "delta_j", "delta_j", 0.01),
    ("heuristic", "heuristic", "successive_refinement", "shape", "shape", "linear"),
    ("hjb", "hjb", "solve_hjb", "time_step", "time_step", 0.1),
    ("hjb", "hjb", "solve_hjb", "wind_power", "wind_power", 1.5),
    ("hjb", "hjb", "solve_hjb", "forced_power", "forced_power", 2.5),
], ids=["tolerance", "max_iter", "burn_in", "max_doublings", "record_trace", "initial_level",
        "max_level", "epsilon", "delta_j", "shape", "time_step", "wind_power", "forced_power"])
@pytest.mark.parametrize("set_in_config", [False, True], ids=["omitted", "set"])
def test_library_defaults_reach_the_library_unchanged(tmp_path, monkeypatch, command, block,
                                                     spied, key, keyword, value, set_in_config):
    # an omitted key is not passed at all, so the library's own default holds
    import inspect

    from zpolicy import cli
    real = getattr(cli, spied)
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, spied, spy)
    blocks = {"simulation": {"n_loads": 1, "horizon_jumps": 200, "set_points": [80.0]},
              "cftp": {"n_samples": 2, "set_points": [80.0]}, "solver": {"gamma": 0.1},
              "heuristic": {"max_level": 0, "episode_jumps": 100, "n_loads": 2},
              "hjb": {"horizon": 1.0, "grid_step": 10.0}}
    base = {k: v for k, v in blocks[block].items() if k != key}
    blocks = {block: {**base, **({key: value} if set_in_config else {})}}
    cfg = _write_config(tmp_path, **blocks)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(seen) == 1
    if set_in_config:
        assert seen[0][keyword] == value
    else:
        assert keyword not in seen[0]
        default = inspect.signature(real).parameters[keyword].default
        assert default is not inspect.Parameter.empty


def test_write_columns_matches_row_by_row_writer(tmp_path):
    from zpolicy.cli import _write_columns, _write_csv
    floats = np.array([0.0, -0.0, 1e-05, 1e16, np.nan, 0.1, 0.0, -0.0, 1e-05, 2.5,
                       -1e16, np.inf, 1e16, np.nan, 0.30000000000000004, -0.0])
    ints = np.array([3, 0, -2, 3, 7, 0, 0, 12, 3, 1, 1, -2, 5, 5, 0, 3])
    columns = [floats, ints, floats[::-1].reshape(4, 4), np.repeat([0.5, -0.0], 8),
               ints.astype(float)]
    header = ["a", "b", "c", "d", "e"]
    _write_columns(tmp_path / "columns.csv", header, columns)
    rows = zip(*(np.ravel(col).tolist() for col in columns))
    _write_csv(tmp_path / "rows.csv", header, rows)
    text = (tmp_path / "rows.csv").read_bytes()
    assert b"-0.0" in text and b"nan" in text and b"1e-05" in text and b"1e+16" in text
    assert (tmp_path / "columns.csv").read_bytes() == text
