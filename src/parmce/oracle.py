"""Ground-truth enumeration by exhaustive subset search, plus generators.

The brute-force enumerator deliberately avoids backtracking search so it
cannot share a bug class with the production engines: it walks every vertex
subset as a bitmask and keeps the ones that are cliques with no extending
vertex.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import Graph

CliqueFamily = tuple[tuple[int, ...], ...]

BRUTE_FORCE_MAX_N = 25


def canonical_family(cliques: Iterable[Iterable[int]]) -> CliqueFamily:
    """Deduplicated, each clique ascending, family lexicographically sorted."""
    return tuple(sorted({tuple(sorted(c)) for c in cliques}))


def brute_force_mce(g: Graph) -> CliqueFamily:
    """All maximal cliques of g by exhaustive subset enumeration.

    Guarded to n <= 25: the walk is Theta(2^n). The empty set is never
    reported, so the empty graph has an empty family.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused: n={n} exceeds {BRUTE_FORCE_MAX_N}")

    masks = [0] * n
    for u in range(n):
        for v in g.adj_sets[u]:
            masks[u] |= 1 << v

    out: list[tuple[int, ...]] = []
    for subset in range(1, 1 << n):
        members = [v for v in range(n) if subset >> v & 1]
        # clique: the only member not adjacent to v is v itself
        if any(subset & ~masks[v] != 1 << v for v in members):
            continue
        # maximal: no outside vertex adjacent to the whole subset
        if any(
            not subset >> w & 1 and masks[w] & subset == subset for w in range(n)
        ):
            continue
        out.append(tuple(members))
    return canonical_family(out)


# -- generators ---------------------------------------------------------------


def gen_moon_moser(k: int) -> Graph:
    """Complete k-partite graph with parts of size 3 (n = 3k).

    Its maximal cliques are exactly the 3^k part transversals, each of size
    k, the extremal family for maximal-clique counts.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = 3 * k
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // 3 != v // 3
    ]
    return Graph.from_edges(n, edges)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p), reproducible from seed.

    The generator is pinned so corpora are stable: a Mersenne Twister
    seeded with `seed` draws random() once per unordered pair (u, v),
    u < v in ascending order, keeping the pair when the draw is < p.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be non-negative")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
