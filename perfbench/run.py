"""Benchmark of the zpolicy CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Runs the workload's CLI commands in-process (``zpolicy.cli.main``, default
flags, artifacts under ``.perfbench_out/``) in whole rounds until
``--seconds`` have passed, checks the artifacts, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
records spans around every public function of the package and gives the
per-layer metrics.  ``--workload all`` runs every workload in turn.
The package is imported from ``src/`` of the checkout that holds this
file; without it the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
IMPORTS_PER_ROUND = 2
# The host's speed drifts by tens of percent within seconds and minutes,
# for the same fixed work.  Every timed measurement therefore lies between
# two runs of the same small probe, and the end-to-end metrics scale it by
# PROBE_NOMINAL_S / (the mean of those two probe times): seconds at the
# speed at which the probe takes PROBE_NOMINAL_S on a quiet 2-CPU host.
PROBE_NOMINAL_S = 0.018


def probe() -> float:
    """Fixed Python work that does not touch zpolicy, nor import anything
    (it also runs before the timed import in a fresh interpreter)."""
    start = time.perf_counter()
    acc = 0
    for i in range(250000):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * PROBE_NOMINAL_S / (probe_before + probe_after)


_IMPORT_CODE = ("import time\n" + inspect.getsource(probe) +
                "before = probe()\nt = time.perf_counter()\nimport zpolicy\n"
                "t = time.perf_counter() - t\nprint(t, before, probe())\n")


class Result(NamedTuple):
    seconds: float
    scaled: float
    code: int
    message: str
    digest: str


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, asked of the library itself."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def conditions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "git_commit": git_commit(),
    }


def measure_import() -> tuple[float, float]:
    """``import zpolicy`` in a fresh interpreter, timed inside it between
    two probes there: (seconds, scaled seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, before, after = (float(v) for v in done.stdout.split()[-3:])
    return seconds, scaled(seconds, before, after)


def run_op(op, config_path: Path, out: Path, tracer) -> tuple[float, int, str]:
    from zpolicy import cli
    argv = [op.command, "--config", str(config_path), "--out", str(out), *op.args]
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{op.name}"):
                    code = cli.main(argv)
    except Exception:   # a crash of the command is one failed operation
        code, err = -1, io.StringIO(traceback.format_exc())
    return time.perf_counter() - start, code, err.getvalue().strip()


def judge(ops, rounds, tmp: Path) -> tuple[bool, int, dict]:
    """Check each distinct set of artifacts of an operation once, then
    count failures: an operation fails when it exits nonzero, and a
    known-fault operation also when its check fails.  Any other problem,
    a later round's bytes differing from round 0 included, makes the run
    incorrect."""
    correct, failed, commands = True, 0, {}
    for op in ops:
        verdicts, problems, fails = {}, [], 0
        for r, results in enumerate(rounds):
            res = results[op.name]
            if res.code != 0:
                mine = [f"exit {res.code}: {res.message.splitlines()[-1] if res.message else ''}"]
            else:
                if res.digest not in verdicts:
                    try:
                        verdicts[res.digest] = op.check(tmp / f"r{r}" / op.name)
                    except Exception as exc:
                        verdicts[res.digest] = [f"check raised {type(exc).__name__}: {exc}"]
                mine = list(verdicts[res.digest])
                if res.digest != rounds[0][op.name].digest:
                    mine.append(f"round {r} artifacts differ from round 0")
            if res.code != 0 or (op.known_fault and mine):
                fails += 1
            elif mine:
                correct = False
            problems.extend(p for p in mine if p not in problems)
        failed += fails
        seconds = [results[op.name].seconds for results in rounds]
        commands[op.name] = {"median_s": statistics.median(seconds), "seconds": seconds,
                             "failed": fails, "known_fault": op.known_fault,
                             "problems": problems}
    return correct, failed, commands


def layer_self_times(tracer, round_spans, timed) -> tuple[dict, list[float]]:
    """Per command, the median over rounds of each layer's self time; and
    per round, the CLI's own time summed over the timed commands."""
    children = tracer.children()
    per_command, cli_self = {}, []
    for first_spans in round_spans:
        total = 0.0
        for op_name, first in first_spans.items():
            sid = next(s for s in range(first, len(tracer.names))
                       if tracer.names[s] == f"cli.{op_name}")
            by_layer = tracer.layer_self_times(sid, children)
            for layer, value in by_layer.items():
                per_command.setdefault(op_name, {}).setdefault(layer, []).append(value)
            if op_name in timed:
                total += by_layer.get("cli", 0.0)
        cli_self.append(total)
    medians = {op_name: {layer: statistics.median(v) for layer, v in by_layer.items()}
               for op_name, by_layer in per_command.items()}
    return medians, cli_self


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setups = []              # (seconds, scaled seconds)
        last_probe = probe()
        for _ in range(SETUPS):
            start = time.perf_counter()
            ops = workloads.WORKLOADS[name](seed)
            config_paths = {op.name: tmp / f"{op.name}.json" for op in ops}
            for op in ops:
                config_paths[op.name].write_text(json.dumps(op.config))
            took = time.perf_counter() - start
            before, last_probe = last_probe, probe()
            setups.append((took, scaled(took, before, last_probe)))

        tracer = None
        if traced:
            import layers
            from spans import Tracer
            tracer = Tracer()
            tracer.install(layers.observers())
        try:
            rounds = []          # per round: {operation: Result}
            imports, round_spans = [], []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                imports.extend(measure_import() for _ in range(IMPORTS_PER_ROUND))
                r = len(rounds)
                results, first_spans = {}, {}
                last_probe = probe()
                for op in ops:
                    out = tmp / f"r{r}" / op.name
                    if tracer:
                        first_spans[op.name] = len(tracer.names)
                    took, code, message = run_op(op, config_paths[op.name], out, tracer)
                    before, last_probe = last_probe, probe()
                    out.mkdir(parents=True, exist_ok=True)
                    results[op.name] = Result(took, scaled(took, before, last_probe),
                                              code, message, checks.digest(out))
                    if r and results[op.name].digest == rounds[0][op.name].digest:
                        shutil.rmtree(out)
                rounds.append(results)
                round_spans.append(first_spans)
            layer_metrics = layers.run_cases(tracer) if tracer else {}
        finally:
            if tracer:
                tracer.uninstall()

        correct, failed, commands = judge(ops, rounds, tmp)
        timed = [op.name for op in ops if not op.known_fault]
        round_seconds = [sum(res[n].seconds for n in timed) for res in rounds]
        round_scaled = [sum(res[n].scaled for n in timed) for res in rounds]
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
                  "conditions": conditions(), "rounds": len(rounds),
                  "setup_seconds": setups, "import_seconds": imports,
                  "round_seconds": round_seconds, "round_scaled": round_scaled,
                  "commands": commands}
        if tracer:
            report["layer_self_s"], cli_self = layer_self_times(tracer, round_spans, timed)
            metrics = {**layer_metrics, "cli.self_s": statistics.median(cli_self),
                       "trace.round_s": statistics.median(round_scaled)}
            with open(OUT / f"spans-{name}.json", "w") as f:
                json.dump(tracer.dump(), f)
        else:
            metrics = {"setup_s": statistics.median(s for _, s in setups),
                       "import_s": statistics.median(s for _, s in imports),
                       "round_s": statistics.median(round_scaled)}
        report["metrics"] = metrics
        with open(OUT / f"report-{name}-trace{int(traced)}.json", "w") as f:
            json.dump(report, f, indent=1)
        return {"report": report, "correct": correct,
                "attempted": len(rounds) * len(ops), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("analytic", "montecarlo", "cftp", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zpolicy" / "__init__.py").is_file():
        print(f"error: no zpolicy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zpolicy
    if Path(zpolicy.__file__).resolve().parent != SRC / "zpolicy":
        print(f"error: zpolicy imported from {zpolicy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    names = list(why) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report = res.pop("report")
        print(json.dumps({"workload": name, "why": why[name], "rounds": report["rounds"],
                          "conditions": report["conditions"]}))
        for op_name, cmd in report["commands"].items():
            note = f"  known fault: {cmd['known_fault']}" if cmd["known_fault"] else ""
            print(f"  {name:<10} {op_name:<14} {cmd['median_s']:9.4f} s  "
                  f"failed {cmd['failed']}/{report['rounds']}{note}")
            for problem in cmd["problems"]:
                print(f"      {problem}")
        if "layer_self_s" in report:
            print(json.dumps({"layer_self_s": report["layer_self_s"]}))
        res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
        results[name] = res
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
