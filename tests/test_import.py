import os
import subprocess
import sys
from pathlib import Path


def _modules_after_import(prefix: str) -> str:
    """The sorted list, as printed, of the modules in package ``prefix``
    that a fresh ``import zpolicy`` loads."""
    import zpolicy
    code = ("import sys, zpolicy\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))")
    # the child imports the package the tests import, installed or not
    src = str(Path(zpolicy.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return proc.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package itself needs numpy alone
    assert _modules_after_import("scipy") == "[]"


def test_import_does_not_load_numpy_random():
    # numpy.random is loaded only when a generator is first built
    assert _modules_after_import("numpy.random") == "[]"


def test_every_public_name_resolves():
    # the benchmark's tracer wraps getattr(module, name) for every name in
    # __all__ of its modules, so a stale name would break every traced run
    import importlib.util
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.MODULES) == 9
    for short in spans.MODULES:
        module = importlib.import_module(f"zpolicy.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"zpolicy.{short}.__all__ names {missing}"
