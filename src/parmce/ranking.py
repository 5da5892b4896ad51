"""Vertex ranking metrics used to split per-vertex subproblems.

Each strategy yields an integer metric per vertex; the actual order compares
(value, id) lexicographically, so ties always break on the dense id and the
result is a strict total order. Higher rank means a costlier-looking
neighborhood, and the decomposed engine gives such vertices a smaller share
of the search.

All three metrics are computed sequentially; their cost is reported
separately from enumeration time by the bench driver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class RankAssignment:
    values: tuple[int, ...]

    def key(self, v: int) -> int:
        """v's place in the strict order, values[v] * n + v: u precedes v iff key(u) < key(v)."""
        return self.values[v] * len(self.values) + v


def degree_rank(g: Graph) -> RankAssignment:
    return RankAssignment(tuple(len(s) for s in g.adj_sets))


def triangle_counts(g: Graph) -> RankAssignment:
    """Per-vertex triangle participation t(v).

    For each edge (u, v) the common neighborhood size is added to both
    endpoints; every triangle then contributes 2 to each of its corners, so
    halving gives t(v). Sum over v is three times the triangle total.
    """
    adj = g.adj_sets
    acc = [0] * g.n
    for u, nu in enumerate(adj):
        for v in nu:
            if v > u:
                c = len(nu & adj[v])
                acc[u] += c
                acc[v] += c
    return RankAssignment(tuple(x // 2 for x in acc))


def degeneracy_rank(g: Graph) -> RankAssignment:
    """Core number of every vertex via O(n + m) minimum-degree peeling.

    One list per degree, peeled level by level, lowest first: at level d
    each vertex whose current degree is d is removed, and each neighbour
    of larger degree loses one and is appended to its new degree's list,
    which at d itself is the list being peeled. No degree drops below the
    level, and a removed vertex keeps its degree, at most the level, so
    the guard also passes over removed neighbours, and deg[v] is v's core
    number once v is removed. An entry whose vertex has since moved to a
    lower list is stale and skipped. The maximum value over vertices is
    the graph degeneracy.
    """
    adj = g.adj_sets
    deg = list(map(len, adj))
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    for d, bucket in enumerate(buckets):
        for v in bucket:  # grows while it is peeled
            if deg[v] != d:
                continue
            for w in adj[v]:
                if deg[w] > d:
                    deg[w] -= 1
                    buckets[deg[w]].append(w)
    return RankAssignment(tuple(deg))


_STRATEGIES = {
    "degree": degree_rank,
    "triangle": triangle_counts,
    "degeneracy": degeneracy_rank,
}

ORDERINGS = tuple(_STRATEGIES)


def compute_rank(g: Graph, strategy: str) -> RankAssignment:
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown ordering {strategy!r}")
    return _STRATEGIES[strategy](g)
