"""Time one workload's operations on two source trees, alternating.

    python3 tools/ab_ops.py SRC_A SRC_B --workload cftp --pairs 10 [--seed 1]

Imports ``zpolicy`` from SRC_A and from SRC_B in one process, under the
package names ``zpolicy_a`` and ``zpolicy_b``, and takes the workload's
operations from ``perfbench/workloads.py`` next to this directory (read
only; its set-up runs on SRC_A's package).  Each operation runs once
untimed on each tree, then ``--pairs`` times on each, through that tree's
``cli.main`` with artifacts under a temporary directory; within a pair the
trees alternate, and which goes first alternates from pair to pair.

Prints JSON: per operation, each tree's median wall time in seconds, how
many pairs tree B took less time, and how many runs exited nonzero; then
the same for the sum per pair over the operations without a known fault
(the operations the benchmark's ``round_s`` times).
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_cli(src: Path, name: str):
    """The ``cli`` module of the ``zpolicy`` package under ``src``,
    imported as the package ``name``."""
    package = src / "zpolicy"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def time_op(cli, op, tmp: Path, label: str) -> tuple[float, int]:
    config = tmp / f"{label}.json"
    config.write_text(json.dumps(op.config))
    argv = [op.command, "--config", str(config), "--out", str(tmp / label), *op.args]
    with redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code


def summary(a: list[float], b: list[float], failed: int) -> dict:
    return {"a_median_s": statistics.median(a), "b_median_s": statistics.median(b),
            "b_lower": sum(y < x for x, y in zip(a, b)), "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    clis = [load_cli(args.src_a.resolve(), "zpolicy_a"),
            load_cli(args.src_b.resolve(), "zpolicy_b")]
    # the workloads import zpolicy for their set-up: give them tree A's
    sys.modules["zpolicy"] = sys.modules["zpolicy_a"]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    times = {op.name: ([], []) for op in ops}
    failed = {op.name: 0 for op in ops}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for op in ops:
            for k, cli in enumerate(clis):
                time_op(cli, op, tmp, f"warm{k}.{op.name}")
        for pair in range(args.pairs):
            for op in ops:
                for k in (0, 1) if pair % 2 == 0 else (1, 0):
                    took, code = time_op(clis[k], op, tmp, f"{pair}.{k}.{op.name}")
                    times[op.name][k].append(took)
                    failed[op.name] += code != 0
    timed = [op.name for op in ops if not op.known_fault]
    sums = [[sum(times[name][k][p] for name in timed) for p in range(args.pairs)]
            for k in (0, 1)]
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs, "seed": args.seed,
        "a": str(args.src_a), "b": str(args.src_b),
        "operations": {name: summary(*times[name], failed[name]) for name in times},
        "total": {"operations": timed,
                  **summary(*sums, sum(failed[name] for name in timed))},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
