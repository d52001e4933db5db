import subprocess
import sys


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package itself needs numpy alone
    code = ("import sys, zpolicy\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
