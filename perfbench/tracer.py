"""In-memory span tracer with self time, attached to a package from outside.

A span records a name, start and end times, the span that encloses it and
the id of the request (one timed operation of the benchmark) it belongs to.
Spans are kept in memory and summarised when the run ends. Tracing is
attached by `Patches`, which replaces names in the package's modules with
wrappers and restores the originals when switched off, so the package itself
carries no tracing code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    request: int | None  # id from Tracer.begin, None outside any request
    size: int = 0  # set by a wrapper; the target prefix length on model.decode spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose `parent` is the span's index. Overlapping
    children are counted once, and a child reaching outside its parent only
    counts inside the parent's interval.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Collects spans and counters for the requests of one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], float] = defaultdict(float)
        self.kinds: dict[int, str] = {}  # request id -> operation kind
        self.request: int | None = None
        self._open: list[int] = []

    def begin(self, kind: str) -> int:
        """Start a request; spans and counts until `end` carry its id."""
        rid = len(self.kinds)
        self.kinds[rid] = kind
        self.request = rid
        return rid

    def end(self):
        self.request = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        sp = Span(name, self.clock(), 0.0, self._open[-1] if self._open else None, self.request)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def count(self, name: str, n: float = 1):
        self.counts[(self.request, name)] += n

    def wrap(self, fn, name: str):
        """`fn` inside a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def requests(self, kinds) -> set[int]:
        return {rid for rid, kind in self.kinds.items() if kind in kinds}

    def totals(self, kinds):
        """Per span name over the requests of the given kinds: self seconds,
        calls and inclusive seconds; and the counter sums."""
        rids = self.requests(kinds)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self_times(self.spans)):
            if s.request in rids:
                self_s[s.name] += t
                calls[s.name] += 1
                inclusive[s.name] += s.end - s.start
        counts: dict[str, float] = defaultdict(float)
        for (rid, name), n in self.counts.items():
            if rid in rids:
                counts[name] += n
        return self_s, calls, inclusive, counts


class Patches:
    """Replacements for attributes of modules and classes, switched together.

    `add(owner, attr, make)` builds the replacement once as `make(original)`;
    class methods are unwrapped and re-wrapped so the replacement sees the
    plain function.
    """

    def __init__(self):
        self._items: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, make):
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._items.append((owner, attr, raw, replacement))

    @contextmanager
    def active(self):
        for owner, attr, _, replacement in self._items:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, raw, _ in reversed(self._items):
                setattr(owner, attr, raw)
