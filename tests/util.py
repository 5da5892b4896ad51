"""Shared test helpers: collection sinks and independent oracles.

The oracles here are deliberately written differently from the library
internals (triple loops, dict-based peeling, incremental set updates) so a
shared bug can't hide on both sides of a comparison.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import parmce as P
from parmce.pivoting import _select_pivot


class CollectSink(P.CliqueSink):
    needs_cliques = True

    def __init__(self) -> None:
        self.cliques: list[tuple[int, ...]] = []

    def emit(self, clique: tuple[int, ...]) -> None:
        self.cliques.append(clique)


def run_engine(
    engine: str,
    g: P.Graph,
    threads: int = 1,
    cutoff: int = 16,
    order: str = "degree",
) -> list[tuple[int, ...]]:
    """Run an engine by name; return raw emissions (dupes preserved)."""
    sink = CollectSink()
    cfg = P.ParallelConfig(threads=threads, cutoff=cutoff)
    if engine == "ttt":
        P.ttt(g, None, sink)
    elif engine == "parttt":
        P.par_ttt(g, None, sink, cfg)
    elif engine == "parmce":
        P.par_mce(g, P.compute_rank(g, order), sink, cfg)
    else:
        raise ValueError(engine)
    return sink.cliques


def canonical_run(engine: str, g: P.Graph, **kw) -> P.canonical_family:
    return P.canonical_family(run_engine(engine, g, **kw))


def triangle_total_by_triples(g: P.Graph) -> int:
    """Count triangles by checking every vertex triple."""
    total = 0
    for a, b, c in combinations(range(g.n), 3):
        if g.adjacent(a, b) and g.adjacent(a, c) and g.adjacent(b, c):
            total += 1
    return total


def peel_core_numbers(g: P.Graph) -> tuple[int, ...]:
    """Core numbers by repeated minimum-degree removal with a running max."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    core: dict[int, int] = {}
    level = 0
    while remaining:
        v = min(remaining, key=lambda u: (deg[u], u))
        level = max(level, deg[v])
        core[v] = level
        remaining.remove(v)
        for w in g.adj_sets[v]:
            if w in remaining:
                deg[w] -= 1
    return tuple(core[v] for v in range(g.n))


def reference_load_edge_list(stream) -> P.Graph:
    """The three-pass edge-list loader that preceded the one-pass one.

    Kept verbatim (lines -> edge tuples -> Graph.from_edges) as the
    reference for the loader's differential test.
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
                raise P.EdgeListParseError(line_no, f"undecodable bytes: {exc}") from exc
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise P.EdgeListParseError(
                line_no, f"expected two labels, got {len(parts)}: {line!r}"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise P.EdgeListParseError(line_no, f"non-integer label in {line!r}") from exc
        if a < 0 or b < 0:
            raise P.EdgeListParseError(line_no, f"negative label in {line!r}")
        edges.append((dense(a), dense(b)))

    return P.Graph.from_edges(len(labels), edges, labels)


def reference_ttt(
    adj: tuple[frozenset[int], ...],
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Callable[[tuple[int, ...]], None],
    split: Callable[[list[int], set[int], set[int]], bool] | None = None,
    cutoff: int = 1,
) -> None:
    """The set kernel that preceded the bit-mask one.

    Kept verbatim as the reference for the kernel's differential test:
    pivoted backtracking; owns and consumes cand/fini.

    With a split hook, a node with |cand| >= cutoff asks it first; when the
    hook returns True it has taken the node's subtree away and the node
    returns without searching it.
    """
    if not cand:
        if not fini:
            emit(tuple(sorted(K)))
        return
    if split is not None and len(cand) >= cutoff and split(K, cand, fini):
        return
    pivot = _select_pivot(adj, cand, fini)
    for q in sorted(cand - adj[pivot]):
        nq = adj[q]
        cand_q = cand & nq
        fini_q = fini & nq
        cand.remove(q)
        fini.add(q)
        K.append(q)
        reference_ttt(adj, K, cand_q, fini_q, emit, split, cutoff)
        K.pop()


def incremental_children(g, K, cand, fini):
    """One branching step exactly as the sequential loop performs it:

    cand/fini are updated in place between iterations instead of being
    recomputed from the call arguments.
    """
    adj = g.adj_sets
    pivot = P.select_pivot(g, cand, fini)
    ext = sorted(cand - adj[pivot])
    cand = set(cand)
    fini = set(fini)
    out = []
    for q in ext:
        cand_q = cand & adj[q]
        fini_q = fini & adj[q]
        cand.remove(q)
        fini.add(q)
        out.append((K + (q,), cand_q, fini_q))
    return out


def walk_lockstep(g, K=(), cand=None, fini=frozenset(), validate=False):
    """Walk the whole search tree comparing the unrolled per-iteration
    subproblems against the incremental ones; returns nodes visited."""
    if cand is None:
        cand = frozenset(range(g.n))
    if not cand and not fini:
        return 1
    unrolled = P.unrolled_children(g, K, set(cand), set(fini))
    stepped = incremental_children(g, K, cand, fini)
    assert [c[0] for c in unrolled] == [c[0] for c in stepped]
    for (ka, ca, fa), (_, cb, fb) in zip(unrolled, stepped):
        assert ca == cb, f"cand mismatch at K={ka}"
        assert fa == fb, f"fini mismatch at K={ka}"
    nodes = 1
    for kq, cq, fq in unrolled:
        if validate:
            P.Subproblem(frozenset(kq), frozenset(cq), frozenset(fq)).validate(g)
        nodes += walk_lockstep(g, kq, cq, fq, validate=validate)
    return nodes


def assert_all_maximal_cliques(g: P.Graph, cliques) -> None:
    """Direct adjacency recheck: every emission is a clique and maximal."""
    for c in cliques:
        members = set(c)
        for a, b in combinations(c, 2):
            assert g.adjacent(a, b), f"{c} is not a clique ({a},{b} missing)"
        for w in range(g.n):
            if w in members:
                continue
            assert not members <= g.adj_sets[w], f"{c} extendable by {w}"
