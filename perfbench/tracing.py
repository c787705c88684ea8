"""Outside-in layer tracing.

The tracer wraps the public functions and public methods of every lapsig
module from the benchmark's side; the program itself is not edited.  A
wrapper is installed on every name a caller looks up (for example both
``lapsig.linalg.pseudoinverse`` and ``lapsig.cli.pseudoinverse``), and
records a span: name, start, end, parent span and job id.  Spans stay in
memory, one column per field so that the garbage collector has no object per
span to traverse, and are written out when the run ends.

``cli.main`` is the one wrapped function of the CLI layer.  Its span is
named after the command (``cli.operators``, ``cli.analysis_basis``), so the
self time of ``cli.<command>`` is what the CLI does itself: argparse, the
private CSV/JSON writers and stdout.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import lapsig

LAYERS = ("graphs", "linalg", "circulant", "analysis", "synthesis",
          "verification", "svgplot", "cli")


def _eig_n3(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return float(len(a)) ** 3


def _csv_bytes(args, kwargs):
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


# Counters taken at a span boundary: name -> (suffix, measure(args, kwargs)).
# ``n3`` is the sum of n^3 over eigensolves, computed from the input shape.
_COUNTERS = {
    "linalg.eig_symmetric": ("n3", _eig_n3),
    "linalg.save_matrix_csv": ("bytes", _csv_bytes),
}


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + argv[0].replace("-", "_")


class Tracer:
    """Span recorder with installable wrappers on lapsig's public names."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 at the top
        self.jobs: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object, object]] = []
        self.wrapped_names: set[str] = set()
        self._build()

    def _build(self) -> None:
        modules = {layer: importlib.import_module(f"lapsig.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "cli":
                    if attr == "main":
                        wrapped[id(obj)] = self._wrap(None, obj)
                elif inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(self._name(f"{layer}.{attr}"), obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(self._name(f"{layer}.{meth}"), fn)
                            self._targets.append((obj, meth, fn, wrapper))
        for mod in (lapsig, *modules.values()):
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped and not inspect.ismodule(obj):
                    self._targets.append((mod, attr, obj, wrapped[id(obj)]))

    def _name(self, name: str) -> str:
        if name in self.wrapped_names:
            raise ValueError(f"two traced callables share the span name {name}")
        self.wrapped_names.add(name)
        return name

    def _wrap(self, name, fn):
        names, starts, ends, parents, jobs = (
            self.names, self.starts, self.ends, self.parents, self.jobs)
        stack, counters = self._stack, self.counters
        counter = _COUNTERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name or _cli_span_name(args, kwargs)
            index = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if counter is not None:
                counters[f"{span}.{counter[0]}"] += counter[1](args, kwargs)
            return result

        return wrapper

    def wrapper_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        wrapped = self._wrap("trace.calibration", noop)
        first = len(self.starts)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        for column in (self.names, self.starts, self.ends, self.parents, self.jobs):
            del column[first:]
        return max(traced - bare, 0.0) / calls

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - cov for start, end, cov in zip(self.starts, self.ends, covered)]

    def table(self) -> dict[str, float]:
        """Totals per span name: ``.calls``, ``.s`` (inclusive, outermost
        span of a name only), ``.self_s``, plus ``layer.<module>.self_s``
        and the boundary counters."""
        out: dict[str, float] = defaultdict(float)
        names, parents = self.names, self.parents
        for k, self_s in enumerate(self.self_times()):
            name = names[k]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"layer.{name.split('.')[0]}.self_s"] += self_s
            parent = parents[k]
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:
                out[f"{name}.s"] += self.ends[k] - self.starts[k]
        out.update(self.counters)
        return dict(out)

    def self_by_job(self) -> dict[object, dict[str, float]]:
        out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, job, self_s in zip(self.names, self.jobs, self.self_times()):
            out[job][name] += self_s
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job id."""
        with gzip.open(path, "wt") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.jobs):
                fh.write(json.dumps(row) + "\n")
