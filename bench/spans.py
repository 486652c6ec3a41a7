"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on ``time.perf_counter``, the span
that was open when it started (its parent) and free-form attributes. Spans
are opened from the benchmark's own code around calls into the package; the
package itself is not instrumented. A layer's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans of one single-threaded run, in start order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


@contextmanager
def patched(module, names: dict):
    """Temporarily replace attributes of ``module``; restores them on exit."""
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, value in names.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def child_index(spans: list[dict]) -> dict[int, list[dict]]:
    """Map each span id to the spans whose parent it is."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def self_time(span: dict, kids: dict[int, list[dict]]) -> float:
    """Duration of ``span`` minus the union of its children's intervals,
    each clipped to the span. ``kids`` comes from :func:`child_index`."""
    lo, hi = span["start"], span["end"]
    intervals = sorted((max(c["start"], lo), min(c["end"], hi))
                       for c in kids.get(span["id"], ()))
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(duration(s) for s in named(spans, name))


def mean(spans: list[dict], name: str) -> float:
    """Mean duration per call of ``name``; 0.0 when it was never called."""
    found = named(spans, name)
    return total(spans, name) / len(found) if found else 0.0


def total_self(spans: list[dict], name: str) -> float:
    """Summed self time of every span called ``name``."""
    kids = child_index(spans)
    return sum(self_time(s, kids) for s in named(spans, name))


def summary(spans: list[dict]) -> dict:
    """Per span name: call count, summed duration and summed self time."""
    kids = child_index(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(s)
        row["self_s"] += self_time(s, kids)
    return dict(sorted(out.items()))
