"""Pivot selection: the vertex of cand ∪ fini covering most of cand.

Branching then only has to visit cand minus the pivot's neighborhood. Ties
break toward the smallest vertex id so the sequential and parallel paths
return bit-identical pivots and every engine is deterministic.
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph


def select_pivot(g: Graph, cand: set[int] | frozenset[int], fini: set[int] | frozenset[int]) -> int:
    """Sequential scan for argmax |cand ∩ Γ(u)| over u in cand ∪ fini."""
    adj = g.adj_sets
    best_t = -1
    best_v = -1
    for w in chain(cand, fini):
        t = len(cand & adj[w])
        if t > best_t or (t == best_t and w < best_v):
            best_t, best_v = t, w
    if best_v < 0:
        raise ValueError("pivot undefined: cand and fini are both empty")
    return best_v


def par_pivot(g: Graph, cand, fini) -> int:
    """Pivot via independent score computation and an associative reduction.

    Each t_w depends only on (cand, Γ(w)), so the scores may be computed
    concurrently; the argmax folds (t_w, -id) pairs with max, which is
    associative and commutative, as a balanced pairwise tree. Must return
    exactly select_pivot's answer.
    """
    adj = g.adj_sets
    keyed = [(len(cand & adj[w]), -w) for w in chain(cand, fini)]
    if not keyed:
        raise ValueError("pivot undefined: cand and fini are both empty")
    while len(keyed) > 1:
        keyed = [
            max(keyed[i], keyed[i + 1]) if i + 1 < len(keyed) else keyed[i]
            for i in range(0, len(keyed), 2)
        ]
    return -keyed[0][1]
