"""In-memory span recording for the traced benchmark run.

A span is ``(id, parent, name, start, end)`` with ``perf_counter`` times;
every span of one tracer shares the tracer's run id. Spans are recorded
from outside the program: around calls into its public functions, and
through :class:`Proxy` objects handed to it in place of a classifier, a
constraint set or a distribution. Nothing is written until :meth:`dump`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        # calls per span name that returned False (rejected candidates)
        self.false_returns: Counter[str] = Counter()
        self._stack: list[int | None] = [None]

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def call(self, name: str, fn, *args, **kwargs):
        sid, parent = self._open()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)
        if result is False:
            self.false_returns[name] += 1
        return result

    def dump(self, fh) -> None:
        for sid, parent, name, start, end in self.spans:
            rec = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                   "start": start, "end": end}
            fh.write(json.dumps(rec) + "\n")


class Proxy:
    """Stands in for ``inner``: calls of the methods named in ``methods``
    (method name -> span name) are recorded as spans, every other attribute
    passes straight through."""

    def __init__(self, inner, tracer: Tracer, methods: dict[str, str]):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_methods", methods)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        span = self._methods.get(name)
        if span is None or not callable(attr):
            return attr
        tracer = self._tracer

        def timed(*args, **kwargs):
            return tracer.call(span, attr, *args, **kwargs)

        # cache on the instance so later lookups skip __getattr__
        object.__setattr__(self, name, timed)
        return timed


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


@dataclass
class NameStats:
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list[float] = field(default_factory=list)


def by_name(spans) -> defaultdict[str, NameStats]:
    """Count, total time, self time and durations per span name; a name
    with no spans reads as all zeros."""
    selfs = self_times(spans)
    out: dict[str, NameStats] = defaultdict(NameStats)
    for sid, _parent, name, start, end in spans:
        st = out[name]
        st.count += 1
        st.total += end - start
        st.self_total += selfs[sid]
        st.durations.append(end - start)
    return out
