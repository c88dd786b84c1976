"""Span recorder for the traced run, installed from outside the package.

Every public module-level function of the five ``waveobs`` modules is
wrapped so that each call records a span (name, start, end, parent).  A
wrapper replaces *every* ``waveobs.*`` module attribute bound to the
wrapped function object, because ``observability`` imports ``evolve``,
``travel_time``, ``build_oscillator_pair`` and ``solve_quasimode`` by name
and ``quasimodes`` does the same with ``build_oscillator_pair``.  Methods
such as ``Coefficient.__call__`` are hot per-point paths (the generic ODE
calls it ~1e5 times per solve) and are left alone.

Spans stay in memory; the caller writes them out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager


def _node_steps(traj) -> int:
    return len(traj.x) * traj.steps


# exact work counts read from the return value of a wrapped call
COUNTERS = {
    "wavesim.evolve": ("wavesim.node_steps", _node_steps),
    "wavesim.evolve_inhomogeneous": ("wavesim.node_steps", _node_steps),
    "quasimodes.solve_quasimode":
        ("quasimodes.rhs_evals", lambda res: int(res.stats["nfev"])),
    "observability.hum_control":
        ("observability.hum_control.cg_iterations",
         lambda res: int(res.iterations)),
}


class SpanRecorder:
    """In-memory spans of one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules):
        """Wrap the public functions of ``modules`` for the duration."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        package = modules[0].__name__.split(".")[0]
        replaced = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in replaced:
                setattr(mod, attr, value)

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def by_name(self) -> dict:
        """{name: (calls, self seconds)} over all spans."""
        out: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total = out.get(span["name"], (0, 0.0))
            out[span["name"]] = (calls + 1, total + own)
        return out

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)
