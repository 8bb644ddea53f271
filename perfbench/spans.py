"""Tracing from outside the program: timing wrappers and spans.

``Tracer.install`` rebinds each listed public function, in every loaded
``qcatalyst`` module that binds it, to a wrapper that records one span per
call: name, start, end, the enclosing span (parent) and the id of the check
or request it belongs to (root).  Spans stay in flat in-memory arrays and are
written out once, at the end of the run.  ``uninstall`` restores the
original bindings.

A span's self time is its duration minus the durations of its direct child
spans.  The wrapper's own bookkeeping for a child falls outside the child's
span and therefore lands in the parent's self time; that, and the slower
calls, is the tracing overhead the benchmark reports.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

TRACED = {
    "rationals": ("parse_rational", "render_rational", "render_decimal"),
    "spectra": ("make_spectrum", "make_catalyst", "two_qubit_catalyst", "epsilon_decompose"),
    "majorization": (
        "locc_possible",
        "is_majorized_by",
        "first_violated_index",
        "partial_sums",
        "lorenz_points",
    ),
    "catalysis": ("analyze", "compute_m", "compute_M", "is_valid_catalyst"),
    "oracle": ("augment", "oracle_valid_catalyst", "sweep", "sweep_grid"),
    "constructor": ("construct_states",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# lru_cache keeps these on the cache object itself, not in its __dict__, so
# functools.update_wrapper does not copy them.
_CACHE_API = ("cache_info", "cache_clear", "cache_parameters")


class Tracer:
    """Span recorder for one process; spans are kept while ``active``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.roots = array("q")
        self.root = 0
        self.active = False
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, fn, name: str):
        names, starts, ends, parents, roots = (
            self.names, self.starts, self.ends, self.parents, self.roots)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            roots.append(self.root)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        for attr in _CACHE_API:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Rebind every listed function wherever a qcatalyst module binds it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"qcatalyst.{m}") for m in TRACED]
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "qcatalyst" or key.startswith("qcatalyst.")]
        for module, fns in zip(modules, TRACED.values()):
            short = module.__name__.rsplit(".", 1)[-1]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self.wrap(original, f"{short}.{fn_name}")
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def self_times(self) -> array:
        """Per-span self time: duration minus the direct children's durations."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = array("d", (e - s for s, e in zip(starts, ends)))
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, for every traced name."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        seconds = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, own in zip(self.names, self.self_times()):
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + own
        return {name: (calls[name], seconds[name]) for name in calls}

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,name,start_s,end_s,parent,root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.names else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,root\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{index},{name},{self.starts[index] - origin:.9f},"
                    f"{self.ends[index] - origin:.9f},{self.parents[index]},"
                    f"{self.roots[index]}\n"
                )
