"""Digest every artifact and exit code of the zpolicy CLI on fixed runs.

    python3 tools/artifact_digests.py SRC_DIR SEED... > digests.json

Imports ``zpolicy`` from SRC_DIR and the benchmark's workloads from
``perfbench/`` next to this directory (read only), and runs through
``zpolicy.cli.main``, each in a fresh directory under a temporary one:

- every operation of every workload, with the configs each SEED gives;
- every operation again with ``--seed 7``, on the first SEED's configs;
- every command on an integer-valued config, whose whole numbers are
  JSON integers;
- ``hjb`` on the benchmark's W3, C3 and FAST models, W3 and C3 again at
  grid step 1, so that every table size is pinned at full grid, on a grid
  step that does not divide the top comfort level, and with
  ``wind_power`` and ``forced_power`` set;
- ``distribution`` at set-points other than Theta_C: 0, a comfort level
  and 5e-10 above it, and the lowest of three comfort levels;
- ``compare`` 5e-10 above a comfort level, where the simulated load parks
  at both, and at Theta_C on W3 and C3 (one load, 20,000 jumps, seed 3),
  so that the analytic CDF is pinned off REF;
- ``simulate`` of 100 loads on REF, C3 and W3 over several accounting
  blocks, each cut into many tiles, with occupation on.

Prints ``{operation: {"exit": code, "stderr": text, file: sha256, ...}}``
as JSON.  Running it on two trees' ``src`` and diffing the outputs checks
that both write the same bytes and fail the same way.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# whole numbers as JSON integers, so that a command's int and float
# paths are both written; compare runs one load at one set-point
INTEGER = {
    "model": {"h": 1, "c": 2, "comfort_levels": [50, 100],
              "wind_rates": [0.04, 0.04], "comfort_rates": [0.02, 0.02]},
    "solver": {"gamma": 1, "z_grid_step": 5},
    "simulation": {"n_loads": 2, "horizon_jumps": 2000, "seed": 3, "set_points": [60, 90],
                   "record_trace": True},
    "heuristic": {"n_loads": 20, "episode_jumps": 200, "initial_level": 0, "max_level": 1,
                  "seed": 3, "epsilon": 1, "domain": [0, 100]},
    "cftp": {"n_samples": 50, "seed": 3, "set_points": [60, 90], "smoothing_bandwidth": 5},
    "hjb": {"horizon": 2, "grid_step": 10, "wind_power": 3},
}
INTEGER_COMPARE = {**INTEGER, "simulation": {"n_loads": 1, "horizon_jumps": 2000, "seed": 3,
                                             "set_points": [60]}}
# hjb runs that reach what the benchmark's one REF run does not: wind
# states, comfort levels, both at full grid, fast switching, a last node
# short of Theta_C and both power keys
HJB = (("w3", "W3", {}), ("c3", "C3", {}), ("fast", "FAST", {}),
       ("w3_grid_1", "W3", {"grid_step": 1.0}), ("c3_grid_1", "C3", {"grid_step": 1.0}),
       ("grid_step_3.5", "REF", {"grid_step": 3.5}),
       ("powers", "REF", {"wind_power": 0.7, "forced_power": 3.5}),
       ("no_power", "REF", {"wind_power": 0, "forced_power": 0}))
# distribution runs whose masses do not all sit at Theta_C: the load
# pinned at the floor, the set-point on a comfort level and 5e-10 above
# it, and on the lowest of three comfort levels
DISTRIBUTION = (("z0", "REF", "0"), ("z50", "REF", "50"),
                ("z50_above", "REF", "50.0000000005"), ("c3_z40", "C3", "40"))
# compare on REF 5e-10 above Theta_1: the analytic masses at Theta_1 and
# at z against the dwell the simulator keys at each
COMPARE_Z50_ABOVE = {"n_loads": 1, "horizon_jumps": 20000, "seed": 3,
                     "set_points": [50.0000000005]}
# compare at Theta_C off REF: the analytic CDF with three wind states and
# with three comfort levels
COMPARE_OFF_REF = {"n_loads": 1, "horizon_jumps": 20000, "seed": 3}
# simulate over three blocks of 4096 segments, each cut into tiles: 100
# loads at 80 distinct set-points, comfort levels among them
SIMULATE_TILES = {"n_loads": 100, "horizon_jumps": 12000, "seed": 5,
                  "set_points": [float(round(20 + 0.8 * k)) for k in range(100)]}
COMMANDS = ("distribution", "curves", "optimize", "simulate", "cftp", "heuristic", "hjb",
            "compare")


def run(cli, tmp: Path, label: str, command: str, config: dict, args=()) -> dict:
    out = tmp / label
    path = tmp / f"{label}.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(out), *args])
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stderr": err.getvalue(),
            **{f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, seeds = Path(argv[0]).resolve(), [int(s) for s in argv[1:]]
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from zpolicy import cli
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"error: zpolicy imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    import workloads

    digests = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for workload, make in workloads.WORKLOADS.items():
            for seed in seeds:
                for op in make(seed):
                    label = f"{workload}.{op.name}.seed{seed}"
                    digests[label] = run(cli, tmp, label, op.command, op.config, op.args)
                    if seed == seeds[0]:
                        label += ".cli_seed7"
                        digests[label] = run(cli, tmp, label, op.command, op.config,
                                             (*op.args, "--seed", "7"))
        for command in COMMANDS:
            config = INTEGER_COMPARE if command == "compare" else INTEGER
            digests[f"integer.{command}"] = run(cli, tmp, f"integer.{command}", command, config)
        for name, model, hjb in HJB:
            config = {"model": getattr(workloads, model),
                      "hjb": {"horizon": 10.0, "grid_step": 2.5, **hjb}}
            digests[f"hjb.{name}"] = run(cli, tmp, f"hjb.{name}", "hjb", config)
        for name, model, z in DISTRIBUTION:
            config = {"model": getattr(workloads, model)}
            digests[f"distribution.{name}"] = run(cli, tmp, f"distribution.{name}",
                                                  "distribution", config, ("--z", z))
        config = {"model": workloads.REF, "simulation": COMPARE_Z50_ABOVE}
        digests["compare.z50_above"] = run(cli, tmp, "compare.z50_above", "compare", config)
        for model in ("W3", "C3"):
            config = {"model": getattr(workloads, model), "simulation": COMPARE_OFF_REF}
            label = f"compare.{model.lower()}"
            digests[label] = run(cli, tmp, label, "compare", config)
        for model in ("REF", "C3", "W3"):
            config = {"model": getattr(workloads, model), "simulation": SIMULATE_TILES}
            label = f"simulate.tiles_{model.lower()}"
            digests[label] = run(cli, tmp, label, "simulate", config)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
