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
    strategy: str
    values: tuple[int, ...]

    def key(self, v: int) -> int:
        """v's place in the strict order, values[v] * n + v: u precedes v iff key(u) < key(v)."""
        return self.values[v] * len(self.values) + v


def degree_rank(g: Graph) -> RankAssignment:
    return RankAssignment("degree", tuple(len(s) for s in g.adj_sets))


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
    return RankAssignment("triangle", tuple(x // 2 for x in acc))


def degeneracy_rank(g: Graph) -> RankAssignment:
    """Core number of every vertex via O(n + m) minimum-degree peeling.

    Bucket-queue variant: vertices sorted by current degree, repeatedly
    remove a minimum-degree vertex and decrement its remaining neighbors.
    The maximum value over vertices is the graph degeneracy.
    """
    n = g.n
    deg = [len(s) for s in g.adj_sets]
    if n == 0:
        return RankAssignment("degeneracy", ())
    max_deg = max(deg)

    bin_start = [0] * (max_deg + 1)
    for d in deg:
        bin_start[d] += 1
    total = 0
    for d in range(max_deg + 1):
        count = bin_start[d]
        bin_start[d] = total
        total += count

    pos = [0] * n
    vert = [0] * n
    next_slot = bin_start.copy()
    for v in range(n):
        pos[v] = next_slot[deg[v]]
        vert[pos[v]] = v
        next_slot[deg[v]] += 1

    # peel in current-degree order (Batagelj-Zaversnik); the deg[w] > deg[v]
    # guard keeps the removal degrees non-decreasing, so it also skips every
    # neighbor already peeled, and deg[v] is final, v's core number, once
    # v is reached
    adj = g.adj_sets
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        for w in adj[v]:
            if deg[w] <= dv:
                continue
            dw = deg[w]
            first = bin_start[dw]
            u = vert[first]
            if u != w:
                vert[first], vert[pos[w]] = w, u
                pos[u], pos[w] = pos[w], first
            bin_start[dw] += 1
            deg[w] -= 1

    return RankAssignment("degeneracy", tuple(deg))


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
