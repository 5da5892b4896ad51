"""Clique consumers and the run report.

Sinks receive cliques as ascending tuples of dense ids, as the kernel
emits them, and never re-sort them. Parallel engines never call emit()
from workers; each worker keeps a local size histogram (and its cliques
when listing) and the driver either replays cliques into the sink (when
one of the sinks needs them, e.g. a writer) or hands over the merged
(count, histogram) through absorb(). No emission is lost; no sink locks.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence


class CliqueSink:
    """Base consumer; subclasses override emit and optionally absorb."""

    needs_cliques = False

    def emit(self, clique: tuple[int, ...]) -> None:
        raise NotImplementedError

    def absorb(self, count: int, hist: Mapping[int, int]) -> None:
        """Merge a pre-aggregated partial (count and size histogram)."""
        raise NotImplementedError

    def finalize(self) -> None:
        pass


class CountingSink(CliqueSink):
    def __init__(self) -> None:
        self.count = 0

    def emit(self, clique: tuple[int, ...]) -> None:
        self.count += 1

    def absorb(self, count: int, hist: Mapping[int, int]) -> None:
        self.count += count


class HistogramSink(CliqueSink):
    """Size -> frequency of emitted cliques; also tracks the total count."""

    def __init__(self) -> None:
        self.histogram: Counter[int] = Counter()
        self.count = 0

    def emit(self, clique: tuple[int, ...]) -> None:
        self.histogram[len(clique)] += 1
        self.count += 1

    def absorb(self, count: int, hist: Mapping[int, int]) -> None:
        self.count += count
        self.histogram.update(hist)

    @property
    def max_size(self) -> int:
        return max(self.histogram) if self.histogram else 0

    @property
    def avg_size(self) -> float:
        if self.count == 0:
            return 0.0
        return sum(s * c for s, c in self.histogram.items()) / self.count


class WriterSink(CliqueSink):
    """Writes one clique per line, ascending ids space-separated.

    canonical=True buffers everything and writes in sorted order (stable
    golden files across thread budgets and engines). use_original_labels
    translates dense ids back through the load-time label map. The first
    write error (a full disk, a reader that closed the pipe) raises from
    the emit or finalize that hit it, so the enumeration stops at once
    instead of running on into a dead stream.
    """

    needs_cliques = True

    def __init__(
        self,
        out: IO[str],
        use_original_labels: bool = False,
        canonical: bool = False,
        labels: Sequence[int] | None = None,
    ) -> None:
        if use_original_labels and labels is None:
            raise ValueError("use_original_labels requires the graph's labels")
        self.out = out
        self.labels = labels
        self.use_original_labels = use_original_labels
        self.canonical = canonical
        self._buffer: list[tuple[int, ...]] = []

    def _line(self, clique: tuple[int, ...]) -> str:
        if self.use_original_labels:
            assert self.labels is not None
            return " ".join(str(self.labels[v]) for v in clique)
        return " ".join(map(str, clique))

    def _write(self, clique: tuple[int, ...]) -> None:
        self.out.write(self._line(clique) + "\n")

    def emit(self, clique: tuple[int, ...]) -> None:
        if self.canonical:
            self._buffer.append(clique)
        else:
            self._write(clique)

    def finalize(self) -> None:
        if self.canonical:
            for clique in sorted(self._buffer):
                self._write(clique)
            self._buffer.clear()


class CompositeSink(CliqueSink):
    """Fan out emissions so counting, histogram, and listing share one pass."""

    def __init__(self, sinks: Sequence[CliqueSink]) -> None:
        self.sinks = list(sinks)

    @property
    def needs_cliques(self) -> bool:  # type: ignore[override]
        return any(s.needs_cliques for s in self.sinks)

    def emit(self, clique: tuple[int, ...]) -> None:
        for s in self.sinks:
            s.emit(clique)

    def absorb(self, count: int, hist: Mapping[int, int]) -> None:
        for s in self.sinks:
            s.absorb(count, hist)

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
        return cls(
            clique_count=sink.count,
            size_histogram=dict(sorted(sink.histogram.items())),
            max_clique_size=sink.max_size,
            avg_clique_size=sink.avg_size,
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
        return json.dumps(
            {
                "clique_count": self.clique_count,
                "size_histogram": {str(k): v for k, v in self.size_histogram.items()},
                "max_clique_size": self.max_clique_size,
                "avg_clique_size": self.avg_clique_size,
                "rt_seconds": self.rt_seconds,
                "et_seconds": self.et_seconds,
                "tt_seconds": self.tt_seconds,
            },
            indent=2,
        )
