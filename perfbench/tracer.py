"""Span tracing by swapping module attributes from outside the program.

A `Tracer` replaces each target function with a wrapper in every namespace of
a package that refers to it, so calls made through names imported into other
modules are seen too.  Each call records one span (name, start, end, parent)
in flat in-memory arrays; nothing is written until the run ends.  `restore`
puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpanStats:
    """Aggregate of all spans of one name."""

    calls: int
    total_s: float
    self_s: float


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    Coverage is the union of the children's intervals, so overlapping
    children are not subtracted twice.  `parents[i]` is the index of span i's
    parent, or -1 for a root span.
    """
    n = len(starts)
    cover = [0.0] * n
    order = sorted((p, s, e) for p, s, e in zip(parents, starts, ends) if p >= 0)
    current, reach = -1, float("-inf")
    for parent, start, end in order:
        if parent != current:
            current, reach = parent, float("-inf")
        if end > reach:
            cover[parent] += end - max(start, reach)
            reach = end
    return [ends[i] - starts[i] - cover[i] for i in range(n)]


def summarize(names, name_ids, starts, ends, parents) -> dict[str, SpanStats]:
    """Calls, total and self seconds per span name, from a span table."""
    selfs = self_times(starts, ends, parents)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for i, nid in enumerate(name_ids):
        calls[nid] += 1
        total[nid] += ends[i] - starts[i]
        own[nid] += selfs[i]
    return {names[nid]: SpanStats(calls[nid], total[nid], own[nid]) for nid in calls}


class Tracer:
    """Records nested call spans of patched functions of one package.

    `observe(tracer, args, kwargs, result)` callbacks, given per target, read
    counts off a call's arguments and result into `counters` and `samples`;
    an observer that raises is counted in `observer_errors`, never fatal.
    """

    def __init__(self, package: str = "eotnet", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.observer_errors: Counter = Counter()
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _namespaces(self):
        prefix = self.package + "."
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def install(self, targets) -> "Tracer":
        """Wrap each (module name, attribute, observer) target.

        A target whose module or attribute does not exist is listed in
        `absent` and skipped.  Installing again after `restore` keeps
        appending spans to the same table.
        """
        namespaces = self._namespaces()
        self.absent, self.wrapped = [], []
        for module_name, attr, observe in targets:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            label = f"{module_name.removeprefix(self.package + '.')}.{attr}"
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn, observe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, key, fn))
                        setattr(ns, key, wrapper)
            self.wrapped.append(label)
        return self

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            ns, key, fn = self._patches.pop()
            setattr(ns, key, fn)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, label: str, fn, observe):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except Exception:  # a stale observer must not fail the traced run
                    self.observer_errors[label] += 1
            return result

        return traced

    def summary(self) -> dict[str, SpanStats]:
        """Calls, total and self seconds per span name."""
        return summarize(self.names, self.name_id, self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Save every span (name, start, end, parent index) as compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
