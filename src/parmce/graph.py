"""Immutable undirected simple graphs over dense vertex ids.

Vertices are relabeled to 0..n-1 in first-appearance order at load time so
that downstream algorithms can use array-indexed per-vertex tables. Each
vertex stores one thing: the frozenset of its neighbors, whose expected
O(1) membership is what makes the kernel's `cand ∩ Γ(v)` cheap. `edges`,
which promises an order, sorts on the fly.

Construction collects each vertex's neighbors in a plain list (duplicates
allowed) and then freezes the lists one vertex at a time, dropping each
list as its frozenset is made. A build therefore peaks at about the
finished graph's size plus the lists, never at two full copies of the
adjacency.
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

    `adj_sets[v]` is the frozenset of v's neighbors, the only stored
    adjacency. Immutable after construction and safe to share across
    worker processes.

    `adj` is any iterable of neighbor collections, one per vertex, and is
    consumed once. Each is frozen as `frozenset(set(nbrs))`: the scratch set
    inserts in `nbrs` order, exactly as `set.add` would, and the copy gets a
    smaller table than a frozenset filled straight from the list.
    """

    __slots__ = ("n", "m", "adj_sets", "labels")

    def __init__(self, adj: Iterable[Iterable[int]], labels: list[int] | None = None):
        self.adj_sets: tuple[frozenset[int], ...] = tuple(map(frozenset, map(set, adj)))
        self.n = n = len(self.adj_sets)
        self.m = sum(map(len, self.adj_sets)) // 2
        self.labels: tuple[int, ...] = tuple(range(n) if labels is None else labels)
        if len(self.labels) != n:
            raise ValueError("labels must have one entry per vertex")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: list[int] | None = None
    ) -> "Graph":
        """Build a graph on vertices 0..n-1, dropping self-loops and duplicates."""
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                continue
            adj[u].append(v)
            adj[v].append(u)
        return cls(_drain(adj), labels)

    @property
    def adj_lists(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor tuples, derived from adj_sets on every access.

        Neither stored nor cached, and read by nothing in this package; it
        is kept only for the benchmark's `perfbench/ops.py::_touch`.
        """
        return tuple(tuple(sorted(s)) for s in self.adj_sets)

    # -- queries -----------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        for u, nbrs in enumerate(self.adj_sets):
            for v in sorted(w for w in nbrs if w > u):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.labels, self.adj_sets) == (other.labels, other.adj_sets)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _drain(adj: list) -> Iterator[list[int]]:
    """Yield each neighbor list once, dropping the caller's reference to it,
    so that a list is freed as soon as `Graph` has frozen it."""
    for i, nbrs in enumerate(adj):
        adj[i] = None
        yield nbrs


# -- edge-list text format ---------------------------------------------------

_COMMENT_PREFIXES = ("#", "%")


def load_edge_list(stream: IO[bytes] | IO[str] | Iterable[str | bytes]) -> Graph:
    """Parse whitespace-separated "u v" lines into a cleaned Graph.

    Lines starting with '#' or '%' are comments (SNAP and KONECT headers);
    blank lines are skipped. Labels, non-negative integers in ASCII digits,
    are remapped to dense ids in first-appearance order. Self-loops are
    dropped; duplicate and reversed edges merge. Empty input yields the
    empty graph. One pass: each line's edge is appended to its endpoints'
    neighbor lists, which `Graph` then freezes one vertex at a time.
    """
    ids: dict[int, int] = {}
    adj: list[list[int]] = []
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
        a, b = parts
        # ASCII digits only: int() also reads "+5", "-0", "1_0" and "١"
        if not (a.isdigit() and b.isdigit() and line.isascii()):
            kind = "negative" if a[0] == "-" or b[0] == "-" else "non-integer"
            raise EdgeListParseError(line_no, f"{kind} label in {line!r}")
        u = ids.setdefault(int(a), len(adj))
        if u == len(adj):
            adj.append([])
        v = ids.setdefault(int(b), len(adj))
        if v == len(adj):
            adj.append([])
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return Graph(_drain(adj), list(ids))


def read_edge_list(path: str | Path) -> Graph:
    with open(path, "rb") as f:
        return load_edge_list(f)


def write_edge_list(g: Graph, out: IO[str]) -> None:
    """Canonical serialization: "u v" per line, u < v in dense ids, ascending."""
    out.writelines(f"{u} {v}\n" for u, v in g.edges())
