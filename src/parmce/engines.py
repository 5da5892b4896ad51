"""The three enumeration engines, all running one search kernel.

ttt      - sequential pivoted backtracking with incremental cand/fini updates.
par_ttt  - the same search on a worker pool. The driver picks the root's
           pivot, and each of the root's branch vertices q is a vertex
           task: a worker builds q's child from Γ(q) alone, iteration i of
           the root's loop explicitly removing the first i-1 branch
           vertices from cand and adding them to fini, so the root's
           children are built in parallel and run independently. A worker
           searches its task with the same kernel; a node with
           |cand| >= cutoff that it meets while the shared queue is hungry
           is donated instead, unrolled the same way into (K, cand, fini)
           triples. At one thread par_ttt is ttt.
par_mce  - one subproblem per vertex v (clique seed {v}), with v's
           neighborhood split by a strict total vertex order so each
           maximal clique is produced exactly once, in the subproblem of
           its lowest-ranked member; subproblems run through the kernel on
           the shared pool and may be donated the same way.

A vertex task of either parallel engine is the same thing: child v of a
base subproblem under a strict order (`_vertex_child`). For par_mce the
base is the whole graph and the order is the ranking; for par_ttt it is
the subproblem searched, ordered with its branch vertices first.

All engines emit the same set of cliques for the same graph; only order
and scheduling differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph
from .parallel import ParallelConfig, run_task_pool
from .pivoting import _select_pivot
from .ranking import RankAssignment
from .sinks import CliqueSink

Child = tuple[tuple[int, ...], set[int], set[int]]
# (K0, cand0, fini0) of a family of vertex tasks; cand0 None stands for every
# vertex of the graph, and fini0 is a set.
Base = tuple[tuple[int, ...], frozenset[int] | set[int] | None, set[int]]


@dataclass(frozen=True)
class Subproblem:
    """A (K, cand, fini) triple: current clique, allowed and excluded extenders."""

    K: frozenset[int]
    cand: frozenset[int]
    fini: frozenset[int]

    def validate(self, g: Graph) -> None:
        if (self.K & self.cand) or (self.K & self.fini) or (self.cand & self.fini):
            raise ValueError("K, cand, fini must be pairwise disjoint")
        for v in self.K | self.cand | self.fini:
            g._check_vertex(v)
        adj = g.adj_sets
        for a in self.K:
            for b in self.K:
                if a != b and b not in adj[a]:
                    raise ValueError(f"K is not a clique: {a} and {b} not adjacent")
        for w in self.cand | self.fini:
            for k in self.K:
                if w not in adj[k]:
                    raise ValueError(f"{w} in cand/fini is not adjacent to {k} in K")

    def is_empty(self) -> bool:
        return not (self.K or self.cand or self.fini)


def root_subproblem(g: Graph) -> Subproblem:
    """K empty, cand = all vertices, fini empty: enumerate everything."""
    return Subproblem(frozenset(), frozenset(range(g.n)), frozenset())


# -- the search kernel --------------------------------------------------------


def _ttt(
    adj: tuple[frozenset[int], ...],
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Callable[[tuple[int, ...]], None],
    split: Callable[[list[int], set[int], set[int]], bool] | None = None,
    cutoff: int = 1,
) -> None:
    """Pivoted backtracking; owns and consumes cand/fini.

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
        _ttt(adj, K, cand_q, fini_q, emit, split, cutoff)
        K.pop()


def ttt(g: Graph, subproblem: Subproblem | None, sink: CliqueSink) -> None:
    """Emit every maximal clique extending the subproblem (default: all of g)."""
    sp = subproblem if subproblem is not None else root_subproblem(g)
    sp.validate(g)
    if sp.is_empty():
        return
    _ttt(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), sink.emit)


# -- unrolled branching -------------------------------------------------------


def unrolled_children(
    g: Graph,
    K: tuple[int, ...],
    cand: set[int],
    fini: set[int],
) -> list[Child]:
    """Explicit per-iteration subproblems of one branching step.

    With the branch set ext = cand minus the pivot's neighborhood taken in
    ascending id order, iteration i (vertex q = ext[i]) gets

        cand_i = (cand ∩ Γ(q)) \\ ext[:i]
        fini_i = (fini ∩ Γ(q)) ∪ (ext[:i] ∩ Γ(q))

    which depends only on the call's own cand/fini and the fixed ext order,
    never on sibling iterations. Every set is built from the Γ(q) side, so
    child i costs O(deg q), not O(|cand|). cand and fini must be `set`s
    (the children's sets are then fresh `set`s too, which the sequential
    kernel consumes in place). Requires nonempty cand ∪ fini.
    """
    adj = g.adj_sets
    pivot = _select_pivot(adj, cand, fini)
    children: list[Child] = []
    prefix: set[int] = set()
    for q in sorted(cand - adj[pivot]):
        nq = adj[q]
        children.append((K + (q,), (cand & nq) - prefix, (fini & nq) | (prefix & nq)))
        prefix.add(q)
    return children


def _vertex_child(
    adj: tuple[frozenset[int], ...], base: Base, values: Sequence[int], v: int
) -> Child:
    """Child v of base = (K0, cand0, fini0) under the strict order (values[w], w).

    K0 + (v,), cand = the members of cand0 ∩ Γ(v) after v, and fini =
    (fini0 ∩ Γ(v)) plus the members of cand0 ∩ Γ(v) before v. Built from
    the Γ(v) side, so it costs O(deg v); cand and fini are fresh sets.
    """
    K0, cand0, fini0 = base
    nv = adj[v]
    kv = (values[v], v)
    cand: set[int] = set()
    fini = fini0 & nv
    for w in nv if cand0 is None else nv & cand0:
        if (values[w], w) > kv:
            cand.add(w)
        else:
            fini.add(w)
    return K0 + (v,), cand, fini


def _branch_tasks(
    g: Graph, K: tuple[int, ...], cand: frozenset[int], fini: frozenset[int]
) -> tuple[list[int], Base, list[int]]:
    """The root of par_ttt as vertex tasks: (branch vertices, base, values).

    With ext = cand minus the pivot's neighborhood in ascending id order,
    the order that puts ext first (by id) and the rest of cand after it
    makes branch vertex q's vertex child exactly unrolled_children's child
    for q: (cand ∩ Γ(q)) minus the earlier ext, and fini ∩ Γ(q) plus them.
    """
    pivot = _select_pivot(g.adj_sets, cand, fini)
    ext = sorted(cand - g.adj_sets[pivot])
    values = [1] * g.n
    for q in ext:
        values[q] = 0
    # cand None (every vertex) spares each task an intersection with cand.
    return ext, (K, cand if len(cand) < g.n else None, set(fini)), values


def _make_task_handler(
    g: Graph, base: Base, values: Sequence[int], cutoff: int
) -> Callable:
    """Task processor for the forked pool.

    A task is a vertex id v, standing for `_vertex_child(adj, base,
    values, v)`, which the handler builds; or a (K, cand, fini) triple,
    a node donated by an earlier task, whose cand and fini sets it
    consumes. Either runs through the kernel; each node with
    |cand| >= cutoff checks hungry() once, and only when the shared queue
    is hungry is it unrolled, at O(Σ deg q) over its branch vertices q,
    and its children given to spawn as one batch (the pool sends it as a
    few queue messages). Otherwise the node is searched in place.
    """
    adj = g.adj_sets

    def handle(task, emit, spawn, hungry) -> None:
        def split(K: list[int], cand: set[int], fini: set[int]) -> bool:
            if not hungry():
                return False
            spawn(unrolled_children(g, tuple(K), cand, fini))
            return True

        if isinstance(task, int):
            K, cand, fini = _vertex_child(adj, base, values, task)
        else:
            K, cand, fini = task
        _ttt(adj, list(K), cand, fini, emit, split, cutoff)

    return handle


def par_ttt(
    g: Graph,
    subproblem: Subproblem | None,
    sink: CliqueSink,
    config: ParallelConfig = ParallelConfig(),
) -> None:
    """ttt whose subtrees may run on a pool; emits exactly ttt's clique set.

    On the pool the driver picks the subproblem's pivot once and queues its
    branch vertices, ascending, as vertex tasks; the workers build each
    child (`_branch_tasks`). A subproblem with empty cand is a leaf of the
    kernel and runs in place.
    """
    sp = subproblem if subproblem is not None else root_subproblem(g)
    if config.threads == 1 or not sp.cand:
        ttt(g, sp, sink)
        return
    sp.validate(g)
    tasks, base, values = _branch_tasks(g, tuple(sorted(sp.K)), sp.cand, sp.fini)
    handler = _make_task_handler(g, base, values, config.cutoff)
    run_task_pool(tasks, handler, config, sink)


# -- per-vertex decomposition -------------------------------------------------


def subproblem_for_vertex(g: Graph, rank: RankAssignment, v: int) -> Subproblem:
    """The vertex-v decomposition root: K={v}, neighborhood split by rank."""
    g._check_vertex(v)
    K, cand, fini = _vertex_child(g.adj_sets, ((), None, set()), rank.values, v)
    return Subproblem(frozenset(K), frozenset(cand), frozenset(fini))


def par_mce(
    g: Graph,
    rank: RankAssignment,
    sink: CliqueSink,
    config: ParallelConfig = ParallelConfig(),
) -> None:
    """Per-vertex decomposed enumeration over the shared graph.

    Every vertex contributes one root task; a clique is emitted only in the
    task of its rank-minimum member, so the union over tasks is exactly the
    maximal clique set with no duplicates. Tasks are queued costliest-first
    (ascending rank) and scheduled dynamically.
    """
    if len(rank.values) != g.n:
        raise ValueError("rank assignment does not match graph size")
    if g.n == 0:
        return
    values = rank.values
    order = sorted(range(g.n), key=lambda v: (values[v], v))
    base: Base = ((), None, set())
    if config.threads == 1:
        adj = g.adj_sets
        for v in order:
            K, cand, fini = _vertex_child(adj, base, values, v)
            _ttt(adj, list(K), cand, fini, sink.emit)
    else:
        handler = _make_task_handler(g, base, values, config.cutoff)
        run_task_pool(order, handler, config, sink)
