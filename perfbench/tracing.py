"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the traced ``risant``
modules and rebinds the wrapper in every ``risant`` namespace that binds
the original (``steered_gain`` is bound in ``pattern``, ``synthesis`` and
``feedopt``), and in module-level dicts such as ``cli.COMMANDS``, so calls
between modules are traced too.  Nothing under ``src/`` changes.

Each call records a span (name, start, end, parent span, job) in memory;
a few wrappers also record work counts from the call's result.  Self time
is a span's duration minus the durations of its child spans (one thread,
so children never overlap).
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("cli", "scenario", "element", "pattern", "synthesis",
                  "feedopt", "link")


def _assembly(args, kwargs):
    return args[0] if args else kwargs["assembly"]


# span name -> function of (args, kwargs, result) giving work counts
RECORDERS = {
    "pattern.far_field": lambda a, k, r: {
        "directions": r.co_pol.size,
        "dir_elem": r.co_pol.size * _assembly(a, k).array.n_elements},
    "synthesis.beam_training": lambda a, k, r: {
        "pilots": r.pilots_used, "successes": int(r.success)},
    "element.optimize_structure": lambda a, k, r: {"rounds": r.rounds_used},
    "link.ofdm_waveform": lambda a, k, r: {"samples": len(r)},
    "cli.write_csv": lambda a, k, r: {"bytes": os.path.getsize(r)},
}


def public_functions():
    """{span name: function} for every public function of the traced modules."""
    found = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"risant.{short}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """In-memory span recorder; ``job`` tags the spans of the running job."""

    def __init__(self):
        self.spans = []                 # (name, start, end, parent, job, outermost)
        self.counts = defaultdict(int)  # (job, "span.counter") -> total
        self.job = None
        self._stack = []
        self._active = defaultdict(int)

    def wrap(self, name, fn):
        recorder = RECORDERS.get(name)
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, start, end, parent, self.job, active[name] == 0)
            if recorder is not None:
                for key, value in recorder(args, kwargs, result).items():
                    self.counts[(self.job, f"{name}.{key}")] += value
            return result

        return traced

    @contextlib.contextmanager
    def install(self, names=None):
        """Rebind wrappers for ``names`` (default: all public functions)."""
        targets = public_functions()
        if names is not None:
            targets = {n: targets[n] for n in names}
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "risant" and not mod_name.startswith("risant."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            patched.append((value, key, item))
                            value[key] = wrappers[id(item)]
        try:
            yield self
        finally:
            for owner, key, original in reversed(patched):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def aggregate(self):
        """{pass label: per-name calls, inclusive and self seconds, and work
        counts}; a span's job is (pass label, job id), or None outside jobs."""
        def empty():
            return {"calls": defaultdict(int), "s": defaultdict(float),
                    "self_s": defaultdict(float), "counts": defaultdict(int)}

        passes = defaultdict(empty)
        for name, start, end, parent, job, outer in self.spans:
            agg = passes[job[0] if job else None]
            duration = end - start
            agg["calls"][name] += 1
            if outer:
                agg["s"][name] += duration
            agg["self_s"][name] += duration
            if parent >= 0:
                agg["self_s"][self.spans[parent][0]] -= duration
        for (job, key), value in self.counts.items():
            passes[job[0] if job else None]["counts"][key] += value
        return passes

    def write(self, path: str) -> None:
        """Write every span as gzip CSV: name, start, end, parent, job."""
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "job"])
            for index, (name, start, end, parent, job, _) in enumerate(self.spans):
                out.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, job])
