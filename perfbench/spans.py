"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: ``Tracer.install`` replaces
every public function of the zpolicy modules (their ``__all__``) with a
wrapper, in every zpolicy namespace that holds a reference to it, and
``Tracer.uninstall`` puts the originals back.  Each span keeps its name,
start, end and parent span.  Worker threads of the package's own thread
pool have no open span of their own; their spans are parented to the
innermost span open in the main thread, which is the call that started
the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("model", "stationary", "costs", "distributions", "variational",
           "simulate", "cftp", "heuristic", "hjb")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.starts.append(time.perf_counter())
            self.ends.append(float("nan"))
        stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(tracer, result)``
        runs afterwards inside a ``trace.observe`` span, so its cost is
        kept out of the traced call and out of its caller's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if observe is not None:
                with tracer.span("trace.observe"):
                    observe(tracer, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, observers=None):
        observers = observers or {}
        import zpolicy
        modules = {m: importlib.import_module(f"zpolicy.{m}") for m in MODULES}
        holders = [zpolicy, importlib.import_module("zpolicy.cli"), *modules.values()]
        for short, mod in modules.items():
            for attr in mod.__all__:
                original = getattr(mod, attr)
                if not inspect.isfunction(original):
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, original, observers.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, traced)
                            self._patched.append((holder, key, original))

    def uninstall(self):
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- analysis --------------------------------------------------------

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent].append(sid)
        return out

    def self_time(self, sid: int, children: dict[int, list[int]]) -> float:
        """Span duration minus the part of it that child spans cover
        (children of a thread pool overlap, so their union is taken)."""
        lo, hi = self.starts[sid], self.ends[sid]
        covered, reach = 0.0, lo
        for a, b in sorted((self.starts[c], self.ends[c]) for c in children.get(sid, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        return (hi - lo) - covered

    def descendants(self, sid: int, children: dict[int, list[int]], name: str) -> list[int]:
        """Spans called ``name`` anywhere below span ``sid``."""
        found, todo = [], list(children.get(sid, ()))
        while todo:
            c = todo.pop()
            if self.names[c] == name:
                found.append(c)
            todo.extend(children.get(c, ()))
        return found

    def layer_self_times(self, sid: int, children: dict[int, list[int]]) -> dict[str, float]:
        """Self time below span ``sid`` (itself included), summed by layer:
        the part of a span name before its first dot."""
        out: dict[str, float] = defaultdict(float)
        todo = [sid]
        while todo:
            c = todo.pop()
            out[self.names[c].split(".", 1)[0]] += self.self_time(c, children)
            todo.extend(children.get(c, ()))
        return dict(out)

    def dump(self) -> dict:
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends}
