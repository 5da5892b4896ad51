"""In-memory spans for the traced run.

A span records a name, start, end, its parent span and the id of the
operation it belongs to. Spans are kept in a list and only written out when
the run ends. A layer is the span name up to its first dot, so
`engines.ttt` and `engines.unrolled_children` both belong to `engines`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    op: str  # the operation (one forked probe) the span belongs to
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, op: str) -> None:
        self.op = op
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.op, sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """fn with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]


def self_seconds_by_layer(spans: list[Span]) -> dict[str, float]:
    """Each layer's span time minus the part its child spans cover.

    Spans of one operation are nested and never overlap, because each
    operation traces only its own process.
    """
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[(s.op, s.parent)] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".", 1)[0]] += s.seconds - child_time[(s.op, s.id)]
    return dict(sorted(out.items()))
