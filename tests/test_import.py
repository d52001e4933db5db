import os
import subprocess
import sys
from pathlib import Path


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package itself needs numpy alone
    import zpolicy
    code = ("import sys, zpolicy\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # the child imports the package the tests import, installed or not
    src = str(Path(zpolicy.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "[]"
