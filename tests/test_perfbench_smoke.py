"""The benchmark harness runs end to end: one traced round of the
montecarlo workload (about 5 s) exits 0 with correct artifacts and counts
the heuristic's episodes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_montecarlo_round():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "montecarlo",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    assert result["failed"] == 0
    # the probe's refinement: levels 0 and 1, four steps each, and one refinement
    assert result["metrics"]["heuristic.episodes"]["value"] == 10
