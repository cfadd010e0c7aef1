"""Spans around the calls into srdetect's modules, recorded from outside.

install() replaces every public function of the traced modules with a
timing wrapper, in the module that defines it and in every traced module
that imported it by name.  Calls inside the package look these names up
in module globals at call time, so sweep_lambda's call to
assemble_kernel, or g's calls to e1_scaled, pass through the wrappers
too.  Nothing under src/ is edited; uninstall() puts the originals back.

A span is [name, start, end, parent index].  Spans stay in memory; the
benchmark writes them out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "quadrature", "calibration", "fredholm", "simulator")
TRACED_MODULES = LAYERS + ("cli",)


def _count_evals(counts, args, result):
    counts["specfun.e1_scaled.evals"] += int(np.size(args[0]))


def _count_kernel(counts, args, result):
    counts["fredholm.kernel_bytes"] += int(result.P.nbytes)


def _count_steps(counts, args, result):
    counts["simulator.path_steps"] += int(np.rint(result.stop_time / result.config.dt).sum())


_COUNTERS = {
    "specfun.e1_scaled": _count_evals,
    "fredholm.assemble_kernel": _count_kernel,
    "simulator.simulate_paths": _count_steps,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        counts = self.counts

        if name == "simulator.detect_stream":
            @functools.wraps(fn)
            def wrapper(increments, *args, **kwargs):
                seen = 0

                def counted():
                    nonlocal seen
                    for rec in increments:
                        seen += 1
                        yield rec

                idx = self._open(name)
                try:
                    return fn(counted(), *args, **kwargs)
                finally:
                    self._close(idx)
                    counts["simulator.detect_stream.records"] += seen
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {m: getattr(self.package, m) for m in TRACED_MODULES}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), c in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - c
        return {k: (v[0], v[1]) for k, v in out.items()}

