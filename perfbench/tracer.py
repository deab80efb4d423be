"""Timing spans around the public functions of quiddsim, installed from outside.

A :class:`Tracer` replaces a function with a wrapper that times the call
and records it under a span name together with the name of the span that
was open when it started (its parent).  Spans are aggregated as they
close, per (parent, name) edge, so memory stays constant however many
calls a pass makes.  A span's self time is its duration minus the time
its child spans cover; the part of a pass that no top-level span covers
is the uncovered remainder, so

    sum of every span's self time + uncovered == traced pass wall time

holds exactly, in integer nanoseconds.

Wrappers replace a name where the caller looks it up: a module global
for module functions imported by name, a class attribute for methods.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Span charged with the counter callbacks, which are the benchmark's own
# work and must not inflate the self time of the span that called them.
OWN = "perfbench"


class Tracer:
    """Aggregated span timings keyed by (parent span name, span name)."""

    def __init__(self):
        self._stack: list[str | None] = [None]
        # (parent, name) -> [calls, total ns]
        self.edges: dict[tuple[str | None, str], list[int]] = defaultdict(
            lambda: [0, 0])
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` timed as span ``name``.

        ``after(args, result)`` runs once the span has closed, timed as
        a sibling span named :data:`OWN`.
        """
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if after is not None:
                t1 = clock()
                after(args, result)
                edge = edges[(parent, OWN)]
                edge[0] += 1
                edge[1] += clock() - t1
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total_ns(self, name: str, parent=...) -> int:
        """Summed duration of span ``name``, optionally only under ``parent``."""
        return sum(e[1] for (p, n), e in self.edges.items()
                   if n == name and (parent is ... or p == parent))

    def self_ns(self, name: str) -> int:
        children = sum(e[1] for (p, _), e in self.edges.items() if p == name)
        return self.total_ns(name) - children

    def names(self) -> list[str]:
        return sorted({n for (_, n) in self.edges})

    def covered_ns(self) -> int:
        """Time covered by top-level spans (those opened with no parent)."""
        return sum(e[1] for (p, _), e in self.edges.items() if p is None)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each (owner, attr, value); undo on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
