"""Clique consumers and the run report.

Each chunk of cliques an engine emits, at any thread count, goes to the
sink's encode() (in the worker, on the pool) and the result to take()
(in the driver, as it arrives). The kernel emits each clique as a tuple
of dense ids in no fixed inner order; by default a chunk travels as its
tuples, each sorted, and take() emits each one. So a sink overrides
emit(), which gets ascending tuples, or encode() and take() as a pair,
where encode() gets the tuples unsorted. HistogramSink ships each
chunk's size counts instead, unless a subclass overrides emit(), and
WriterSink its formatted lines, so the driver only merges or writes
them. Every clique reaches a sink exactly once; no sink locks.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Callable, Sequence


class CliqueSink:
    """Base consumer: override emit(), or encode() and take() as a pair."""

    def emit(self, clique: tuple[int, ...]) -> None:
        raise NotImplementedError

    def encode(self, cliques: list[tuple[int, ...]]) -> Any:
        """Worker side: the picklable payload that stands for `cliques`,
        tuples in no fixed inner order; by default each one sorted."""
        return [tuple(sorted(c)) for c in cliques]

    def take(self, payload: Any) -> None:
        """Driver side: consume one payload made by encode(); by default
        emit each clique."""
        for clique in payload:
            self.emit(clique)

    def finalize(self) -> None:
        pass


class HistogramSink(CliqueSink):
    """Size -> frequency of emitted cliques; its total is the count.

    A chunk travels as its size Counter, which take() merges. A subclass
    that overrides emit() is sent the tuples instead, and take() emits
    each one; a subclass that overrides encode() and take() as a pair
    decides for itself.
    """

    def __init__(self) -> None:
        self.histogram: Counter[int] = Counter()

    def _counts_only(self) -> bool:
        return type(self).emit is HistogramSink.emit

    def emit(self, clique: tuple[int, ...]) -> None:
        self.histogram[len(clique)] += 1

    def encode(self, cliques: list[tuple[int, ...]]) -> Any:
        if self._counts_only():
            return Counter(map(len, cliques))
        return super().encode(cliques)

    def take(self, payload: Any) -> None:
        if self._counts_only():
            self.histogram.update(payload)
        else:
            super().take(payload)

    @property
    def count(self) -> int:
        return sum(self.histogram.values())


# One counter: a histogram's total is the clique count.
CountingSink = HistogramSink


class WriterSink(HistogramSink):
    """Writes one clique per line, ascending ids space-separated.

    It keeps the size histogram of what it writes. `labels[v]` is the
    name written for dense id v (the graph's `labels` for input labels,
    `range(n)` for dense ids); None writes `str(v)`. A line sorts the
    dense ids before naming them. canonical=True buffers everything and
    writes the cliques sorted by their ascending dense-id tuples (stable
    golden files across thread budgets and engines). The engines have
    each chunk's lines formatted (encode, in the worker on the pool) and
    written as one block (take); canonical chunks travel as sorted tuples.
    The first write error (a full disk, a reader that closed the pipe)
    raises from the emit, take or finalize that hit it, so the enumeration
    stops at once instead of running on into a dead stream.
    """

    def __init__(
        self, out: IO[str], canonical: bool = False, labels: Sequence[int] | None = None
    ) -> None:
        super().__init__()
        self.out = out
        self.canonical = canonical
        self._buffer: list[tuple[int, ...]] = []
        # Each vertex's text, converted once: a table lookup costs half
        # of str() on every id of every line.
        self._name: Callable[[int], str] = str
        if labels is not None:
            self._name = [str(x) for x in labels].__getitem__

    def _line(self, clique: tuple[int, ...]) -> str:
        return " ".join(map(self._name, sorted(clique))) + "\n"

    def emit(self, clique: tuple[int, ...]) -> None:
        super().emit(clique)
        if self.canonical:
            self._buffer.append(tuple(sorted(clique)))
        else:
            self.out.write(self._line(clique))

    def encode(self, cliques: list[tuple[int, ...]]) -> Any:
        body = super().encode(cliques) if self.canonical else "".join(map(self._line, cliques))
        return body, Counter(map(len, cliques))

    def take(self, payload: Any) -> None:
        body, sizes = payload
        if self.canonical:
            self._buffer += body
        else:
            self.out.write(body)
        self.histogram.update(sizes)

    def finalize(self) -> None:
        if self.canonical:
            name = self._name  # each buffered tuple is sorted already: no _line
            self.out.writelines(" ".join(map(name, c)) + "\n" for c in sorted(self._buffer))
            self._buffer.clear()


class CompositeSink(CliqueSink):
    """Fan out emissions so counting, histogram, and listing share one pass."""

    def __init__(self, sinks: Sequence[CliqueSink]) -> None:
        self.sinks = list(sinks)

    def emit(self, clique: tuple[int, ...]) -> None:
        for s in self.sinks:
            s.emit(clique)

    def finalize(self) -> None:
        for s in self.sinks:
            s.finalize()


@dataclass
class EnumerationReport:
    """Count, size distribution, and the ranking/enumeration/total timing split."""

    clique_count: int
    size_histogram: dict[int, int] = field(default_factory=dict)
    max_clique_size: int = 0
    avg_clique_size: float = 0.0
    rt_seconds: float = 0.0
    et_seconds: float = 0.0
    tt_seconds: float = 0.0

    @classmethod
    def from_histogram(
        cls, sink: HistogramSink, rt: float, et: float, tt: float
    ) -> "EnumerationReport":
        hist, count = sink.histogram, sink.count
        return cls(
            clique_count=count,
            size_histogram=dict(sorted(hist.items())),
            max_clique_size=max(hist, default=0),
            avg_clique_size=sum(s * c for s, c in hist.items()) / count if count else 0.0,
            rt_seconds=rt,
            et_seconds=et,
            tt_seconds=tt,
        )

    def as_kv_text(self, include_histogram: bool = False) -> str:
        lines = [
            f"clique_count={self.clique_count}",
            f"max_clique_size={self.max_clique_size}",
            f"avg_clique_size={self.avg_clique_size:.6g}",
            f"rt_seconds={self.rt_seconds:.6f}",
            f"et_seconds={self.et_seconds:.6f}",
            f"tt_seconds={self.tt_seconds:.6f}",
        ]
        if include_histogram:
            lines.extend(
                f"hist[{size}]={count}"
                for size, count in sorted(self.size_histogram.items())
            )
        return "\n".join(lines)

    def as_json(self) -> str:
        return json.dumps(asdict(self), indent=2)
