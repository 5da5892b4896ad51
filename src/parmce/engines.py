"""The three enumeration engines.

ttt      - sequential pivoted backtracking with incremental cand/fini updates.
par_ttt  - same search tree, but the loop over branch vertices is unrolled:
           iteration i explicitly removes the first i-1 branch vertices from
           cand and adds them to fini, so every iteration's subproblem is
           independent of its siblings and may run as its own task.
par_mce  - one subproblem per vertex v (clique seed {v}), with v's
           neighborhood split by a strict total vertex order so each
           maximal clique is produced exactly once, in the subproblem of
           its lowest-ranked member; subproblems run on the shared pool
           and still split further via the unrolled loop.

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


# -- sequential engine --------------------------------------------------------


def _ttt(
    adj: tuple[frozenset[int], ...],
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Callable[[tuple[int, ...]], None],
) -> None:
    """Pivoted backtracking; owns and consumes cand/fini."""
    if not cand:
        if not fini:
            emit(tuple(sorted(K)))
        return
    pivot = _select_pivot(adj, cand, fini)
    for q in sorted(cand - adj[pivot]):
        nq = adj[q]
        cand_q = cand & nq
        fini_q = fini & nq
        cand.remove(q)
        fini.add(q)
        K.append(q)
        _ttt(adj, K, cand_q, fini_q, emit)
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


def _make_task_handler(
    g: Graph, rank_values: Sequence[int] | None, cutoff: int
) -> Callable:
    """Task processor shared by the serial path and the forked pool.

    Tasks are ("v", vertex) for per-vertex decomposition roots or
    ("s", K, cand, fini) for spawned subproblems, whose cand and fini sets
    the handler consumes. Subproblems with |cand| >= cutoff are unrolled,
    at O(Σ deg q) over their branch vertices q; when the shared queue is
    hungry the children go back to it as one batch through spawn (the
    pool sends it as a few queue messages), otherwise onto the local
    stack. Below the cutoff the subproblem runs as plain sequential
    backtracking.
    """
    adj = g.adj_sets

    def handle(task, emit, spawn, hungry) -> None:
        if task[0] == "v":
            v = task[1]
            assert rank_values is not None
            cand, fini = _split_neighbors(adj[v], rank_values, v)
            pending: list[Child] = [((v,), cand, fini)]
        else:
            _, K, cand, fini = task
            pending = [(K, cand, fini)]
        while pending:
            K, cand, fini = pending.pop()
            if len(cand) >= cutoff:
                children = unrolled_children(g, K, cand, fini)
                if hungry():
                    spawn([("s",) + child for child in children])
                else:
                    pending.extend(children)
            else:
                _ttt(adj, list(K), cand, fini, emit)

    return handle


def _never_hungry() -> bool:
    return False


def _no_spawn(tasks) -> None:
    raise AssertionError("serial execution must not spawn tasks")


def _deliver(sink: CliqueSink, count, hist, cliques) -> None:
    if cliques is not None:
        for c in cliques:
            sink.emit(c)
    else:
        sink.absorb(count, hist)


def par_ttt(
    g: Graph,
    subproblem: Subproblem | None,
    sink: CliqueSink,
    config: ParallelConfig = ParallelConfig(),
) -> None:
    """Unrolled-loop engine; emits exactly ttt's clique set on any budget."""
    sp = subproblem if subproblem is not None else root_subproblem(g)
    sp.validate(g)
    if sp.is_empty():
        return
    task = ("s", tuple(sorted(sp.K)), set(sp.cand), set(sp.fini))
    handler = _make_task_handler(g, None, config.cutoff)
    if config.threads == 1:
        handler(task, sink.emit, _no_spawn, _never_hungry)
    else:
        count, hist, cliques = run_task_pool(
            [task], handler, config, sink.needs_cliques
        )
        _deliver(sink, count, hist, cliques)


# -- per-vertex decomposition -------------------------------------------------


def _split_neighbors(
    nbrs: frozenset[int], values: Sequence[int], v: int
) -> tuple[set[int], set[int]]:
    """Partition Γ(v) into higher-ranked (cand) and lower-ranked (fini)."""
    kv = (values[v], v)
    cand: set[int] = set()
    fini: set[int] = set()
    for w in nbrs:
        if (values[w], w) > kv:
            cand.add(w)
        else:
            fini.add(w)
    return cand, fini


def subproblem_for_vertex(g: Graph, rank: RankAssignment, v: int) -> Subproblem:
    """The vertex-v decomposition root: K={v}, neighborhood split by rank."""
    g._check_vertex(v)
    cand, fini = _split_neighbors(g.adj_sets[v], rank.values, v)
    return Subproblem(frozenset((v,)), frozenset(cand), frozenset(fini))


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
    handler = _make_task_handler(g, values, config.cutoff)
    if config.threads == 1:
        for v in order:
            handler(("v", v), sink.emit, _no_spawn, _never_hungry)
    else:
        tasks = [("v", v) for v in order]
        count, hist, cliques = run_task_pool(
            tasks, handler, config, sink.needs_cliques
        )
        _deliver(sink, count, hist, cliques)
