"""Span tracing for the benchmark, installed from outside the package.

A function is wrapped in every module namespace that binds it, not only in
the module that defines it: ``from .feasibility import decide`` gives
harness, cli and oracle_algorithms names of their own, and ``decide``
itself reaches ``build_system`` and the verifiers through the globals of
``sephyp.feasibility``. Methods are wrapped on their class.

Every wrapped call is a span with a name, start, end and parent span. A
span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the time spent inside top-level spans.
Spans marked hot (the per-mask filter runs about a million times per corpus)
are not stored one by one; their count and time are aggregated per parent
span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional, Union

SpanName = Union[str, Callable[[Optional[str]], str]]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        # (span id, parent span id, name, start, end); parent id 0 is "no span".
        self.spans: list[tuple[int, int, str, float, float]] = []
        # (name, parent span id) -> [calls, seconds] for hot spans.
        self.aggregates: dict[tuple[str, int], list] = {}
        # Frames are [span id, name, seconds covered by child spans].
        self._stack: list[list] = [[0, None, 0.0]]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: SpanName, fn: Callable, hot: bool = False, count: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return fn recording a span per call.

        name may be a function of the parent span's name. count names a
        counter bumped once per call; after(tracer, args, result) runs once
        the span has closed, outside the timed interval.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_name = name(parent[1]) if callable(name) else name
            frame = [self._next_id, span_name, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[2] += elapsed
                self.calls[span_name] += 1
                self.self_s[span_name] += elapsed - frame[2]
                if count is not None:
                    self.counts[count] += 1
                if hot:
                    agg = self.aggregates.setdefault((span_name, parent[0]), [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                else:
                    self.spans.append((frame[0], parent[0], span_name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable, wrapped: Callable, package: str) -> int:
        """Rebind fn to wrapped in every loaded module of package; returns the
        number of namespaces rebound."""
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapped)
                    sites += 1
        return sites

    def patch_method(self, cls: type, attr: str, wrapped: Callable) -> None:
        self._replace(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def self_sum_s(self) -> float:
        return sum(self.self_s.values())

    def children_calls(self, name: str, parent_name: str) -> int:
        """Stored spans called name whose parent span is called parent_name."""
        parents = {sid for sid, _, n, _, _ in self.spans if n == parent_name}
        return sum(1 for _, pid, n, _, _ in self.spans if n == name and pid in parents)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": sid, "parent": pid, "name": n, "start": s, "end": e}
                for sid, pid, n, s, e in self.spans
            ],
            "aggregated": [
                {"name": n, "parent": pid, "calls": c, "seconds": t}
                for (n, pid), (c, t) in self.aggregates.items()
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
