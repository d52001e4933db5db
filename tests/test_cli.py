import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zpolicy.cli import main


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


def test_console_entry_point(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "zpolicy.cli", "distribution",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True)
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
])
def test_simulate_bad_config_exit_codes(tmp_path, simulation, code):
    cfg = _write_config(tmp_path, simulation=simulation)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code


def test_workers_flag_is_gone(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["curves", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--workers", "2"])
