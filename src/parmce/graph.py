"""Immutable undirected simple graphs over dense vertex ids.

Vertices are relabeled to 0..n-1 in first-appearance order at load time so
that downstream algorithms can use array-indexed per-vertex tables. Each
vertex keeps both an ascending neighbor tuple (deterministic iteration) and
a frozenset (expected O(1) membership), which is what makes min-side set
intersection cheap.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    Immutable after construction and safe to share across worker processes.
    """

    __slots__ = ("n", "m", "adj_sets", "adj_lists", "labels")

    def __init__(self, adj: list[set[int]], labels: list[int] | None = None):
        n = len(adj)
        self.n = n
        self.adj_sets: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self.adj_lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self.m = sum(len(s) for s in adj) // 2
        self.labels: tuple[int, ...] = (
            tuple(labels) if labels is not None else tuple(range(n))
        )
        if len(self.labels) != n:
            raise ValueError("labels must have one entry per vertex")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: list[int] | None = None
    ) -> "Graph":
        """Build a graph on vertices 0..n-1, dropping self-loops and duplicates."""
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj, labels)

    # -- queries -----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Ascending neighbor ids of v."""
        self._check_vertex(v)
        return self.adj_lists[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adj_sets[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj_sets[v])

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        for u in range(self.n):
            for v in self.adj_lists[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and self.adj_lists == other.adj_lists
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- edge-list text format ---------------------------------------------------

_COMMENT_PREFIXES = ("#", "%")


def load_edge_list(stream: IO[bytes] | IO[str] | Iterable[str | bytes]) -> Graph:
    """Parse whitespace-separated "u v" lines into a cleaned Graph.

    Lines starting with '#' or '%' are comments (SNAP and KONECT headers);
    blank lines are skipped. Labels are remapped to dense ids in
    first-appearance order. Self-loops are dropped; duplicate and reversed
    edges merge. Empty input yields the empty graph.
    """
    id_map: dict[int, int] = {}
    labels: list[int] = []
    edges: list[tuple[int, int]] = []

    def dense(label: int) -> int:
        got = id_map.get(label)
        if got is None:
            got = len(labels)
            id_map[label] = got
            labels.append(label)
        return got

    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EdgeListParseError(line_no, f"undecodable bytes: {exc}") from exc
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                line_no, f"expected two labels, got {len(parts)}: {line!r}"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListParseError(line_no, f"non-integer label in {line!r}") from exc
        if a < 0 or b < 0:
            raise EdgeListParseError(line_no, f"negative label in {line!r}")
        edges.append((dense(a), dense(b)))

    return Graph.from_edges(len(labels), edges, labels)


def read_edge_list(path: str | Path) -> Graph:
    with open(path, "rb") as f:
        return load_edge_list(f)


def edge_list_lines(g: Graph) -> list[str]:
    """Canonical serialization: "u v" with u < v in dense ids, ascending."""
    return [f"{u} {v}" for u, v in g.edges()]


def write_edge_list(g: Graph, out: IO[str]) -> None:
    for line in edge_list_lines(g):
        out.write(line + "\n")
