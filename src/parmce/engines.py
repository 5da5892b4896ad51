"""The three enumeration engines, all running one search kernel.

ttt      - sequential pivoted backtracking. The root step of the whole
           graph runs on id sets with incremental cand/fini updates, and
           each of its children is a task for the kernel; a subproblem
           with a nonempty clique K is one task.
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

The kernel searches a task (K, cand, fini) in a frame: cand ∪ fini in
ascending id order, bit i for the i-th vertex, and each vertex's
neighbours in the frame as one int bit mask. Every task lies inside one
Γ(q) (a root child, a vertex task, a donated node's child or a
subproblem with q in K), so a frame has at most Δ bits; the root of the
whole graph is never framed. Pivot ties and branch order follow vertex
ids, so the search tree and the order of emissions are those of the
same search on id sets. Tasks and children with at most two candidates
are decided in closed form, and finished vertices with no candidate
neighbour are left out of the frame.

A vertex task of either parallel engine is the same thing: child v of a
base subproblem under a strict order (`_vertex_child`). For par_mce the
base is the whole graph and the order is the ranking; for par_ttt it is
the subproblem searched, ordered with its branch vertices first.

All engines emit the same set of cliques for the same graph; only order
and scheduling differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .graph import Graph
from .parallel import ParallelConfig, run_task_pool
from .pivoting import _select_pivot
from .ranking import RankAssignment
from .sinks import CliqueSink

Child = tuple[tuple[int, ...], set[int], set[int]]
# (K0, cand0, fini0) of a family of vertex tasks; cand0 None stands for every
# vertex of the graph, and fini0 is a set.
Base = tuple[tuple[int, ...], frozenset[int] | set[int] | None, set[int]]
# key[w] orders vertices strictly: values[w] * n + w for a ranking's values.
Keys = Sequence[int] | Mapping[int, int]
Emit = Callable[[tuple[int, ...]], None]
# A node's split hook split(K, cand, fini, F=None): True if it took the node
# away. cand and fini are id sets, or with F, bit masks over the frame F.
Split = Callable[..., bool]


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


def _ids(F: Sequence[int], mask: int) -> set[int]:
    """The vertex ids of a frame's bit mask."""
    return {v for i, v in enumerate(F) if mask >> i & 1}


def _kernel(
    F: Sequence[int],
    rows: Sequence[int],
    K: list[int],
    cand: int,
    fini: int,
    emit: Emit,
    split: Split | None,
    cutoff: int,
) -> None:
    """Pivoted backtracking on the bit masks of a frame; |cand| >= 3.

    Bit i stands for vertex F[i], F ascending, and rows[i] is the mask of
    Γ(F[i]) in the frame (for a vertex that starts in fini, only its cand
    part). The pivot is the first bit of cand | fini with the most of cand
    in its row, and the branches are the bits of cand minus the pivot's row
    in ascending order, so ties, branches and emissions follow vertex ids
    exactly as a search over id sets would. A child with at most two
    candidates is decided in place, as `_task` decides such a task; any
    other child with at least cutoff candidates asks the split hook first,
    passing its masks and F.
    """
    best = -1
    m = cand | fini
    while m:
        low = m & -m
        i = low.bit_length() - 1
        t = (cand & rows[i]).bit_count()
        if t > best:
            best, p = t, i
        m ^= low
    ext = cand & ~rows[p]
    while ext:
        low = ext & -ext
        ext ^= low
        i = low.bit_length() - 1
        row = rows[i]
        c = cand & row
        f = fini & row
        cand ^= low
        fini |= low
        K.append(F[i])
        if not c:
            if not f:
                emit(tuple(sorted(K)))
        elif not c & (c - 1):
            a = c.bit_length() - 1
            if not f & rows[a]:
                emit(tuple(sorted(K + [F[a]])))
        else:
            nc = c.bit_count()
            if nc == 2:
                a = (c & -c).bit_length() - 1
                b = c.bit_length() - 1
                ra = rows[a]
                if ra >> b & 1:
                    if not f & ra & rows[b]:
                        emit(tuple(sorted(K + [F[a], F[b]])))
                else:
                    if not f & ra:
                        emit(tuple(sorted(K + [F[a]])))
                    if not f & rows[b]:
                        emit(tuple(sorted(K + [F[b]])))
            elif split is None or nc < cutoff or not split(K, c, f, F):
                _kernel(F, rows, K, c, f, emit, split, cutoff)
        K.pop()


def _frame(
    adj: tuple[frozenset[int], ...], cand: set[int], fini: list[int]
) -> tuple[list[int], list[int], int, int]:
    """(F, rows, cand mask, fini mask) of a task whose fini all touch cand.

    F is cand ∪ fini ascending. A fini vertex's row keeps only its cand
    part, the only part the kernel reads. The bit table is the frame's own.
    """
    if fini:
        S = cand.union(fini)
        F = sorted(S)
        get = {v: 1 << i for i, v in enumerate(F)}.__getitem__
        rows = [sum(map(get, adj[u] & (S if u in cand else cand))) for u in F]
        fmask = sum(map(get, fini))
    else:
        F = sorted(cand)
        get = {v: 1 << i for i, v in enumerate(F)}.__getitem__
        rows = [sum(map(get, adj[u] & cand)) for u in F]
        fmask = 0
    return F, rows, ((1 << len(F)) - 1) ^ fmask, fmask


def _task(
    adj: tuple[frozenset[int], ...],
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Emit,
    split: Split | None = None,
    cutoff: int = 1,
) -> None:
    """Search one task given as id sets: closed forms, else frame and kernel.

    With a split hook, a task with |cand| >= cutoff asks it first; when the
    hook returns True it has taken the task away. A task with at most two
    candidates is decided without a search. Otherwise the fini vertices
    with no neighbour in cand are dropped: none reaches a descendant's
    fini, and one can win the pivot only at score 0, where every pivot
    branches on all of cand.
    """
    if split is not None and len(cand) >= cutoff and split(K, cand, fini):
        return
    if len(cand) <= 2:
        if not cand:
            if not fini:
                emit(tuple(sorted(K)))
        elif len(cand) == 1:
            (a,) = cand
            if fini.isdisjoint(adj[a]):
                emit(tuple(sorted(K + [a])))
        else:
            a, b = sorted(cand)
            if b in adj[a]:
                if adj[a].isdisjoint(fini & adj[b]):
                    emit(tuple(sorted(K + [a, b])))
            else:
                for x in (a, b):
                    if fini.isdisjoint(adj[x]):
                        emit(tuple(sorted(K + [x])))
        return
    F, rows, cmask, fmask = _frame(
        adj, cand, [w for w in fini if not cand.isdisjoint(adj[w])]
    )
    _kernel(F, rows, K, cmask, fmask, emit, split, cutoff)


def _search(
    adj: tuple[frozenset[int], ...],
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Emit,
    split: Split | None = None,
    cutoff: int = 1,
) -> None:
    """ttt's search of a subproblem given as id sets; consumes cand/fini.

    With K nonempty, cand ∪ fini lies inside Γ(k) for each k in K, so the
    subproblem runs as one task. Otherwise the root is never framed: it is
    one incremental branching step on id sets, and each child lies inside
    Γ(q) of its branch vertex q and runs as a task. So no frame holds more
    than Δ vertices.
    """
    if K:
        _task(adj, K, cand, fini, emit, split, cutoff)
        return
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
        _task(adj, K + [q], cand_q, fini_q, emit, split, cutoff)


def ttt(g: Graph, subproblem: Subproblem | None, sink: CliqueSink) -> None:
    """Emit every maximal clique extending the subproblem (default: all of g)."""
    sp = subproblem if subproblem is not None else root_subproblem(g)
    sp.validate(g)
    if sp.is_empty():
        return
    _search(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), sink.emit)


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
    adj: tuple[frozenset[int], ...], base: Base, key: Keys, v: int
) -> Child:
    """Child v of base = (K0, cand0, fini0) under the strict order key.

    K0 + (v,), cand = the members of cand0 ∩ Γ(v) after v, and fini =
    (fini0 ∩ Γ(v)) plus the members of cand0 ∩ Γ(v) before v. Built from
    the Γ(v) side, so it costs O(deg v); cand and fini are fresh sets.
    """
    K0, cand0, fini0 = base
    nv = adj[v]
    kv = key[v]
    cand: set[int] = set()
    fini = fini0 & nv
    for w in nv if cand0 is None else nv & cand0:
        if key[w] > kv:
            cand.add(w)
        else:
            fini.add(w)
    return K0 + (v,), cand, fini


def _branch_tasks(
    g: Graph, K: tuple[int, ...], cand: frozenset[int], fini: frozenset[int]
) -> tuple[list[int], Base, list[int]]:
    """The root of par_ttt as vertex tasks: (branch vertices, base, keys).

    With ext = cand minus the pivot's neighborhood in ascending id order,
    the order that puts ext first (by id) and the rest of cand after it
    makes branch vertex q's vertex child exactly unrolled_children's child
    for q: (cand ∩ Γ(q)) minus the earlier ext, and fini ∩ Γ(q) plus them.
    """
    pivot = _select_pivot(g.adj_sets, cand, fini)
    ext = sorted(cand - g.adj_sets[pivot])
    key = list(range(g.n, 2 * g.n))
    for q in ext:
        key[q] = q
    # cand None (every vertex) spares each task an intersection with cand.
    return ext, (K, cand if len(cand) < g.n else None, set(fini)), key


def _make_task_handler(g: Graph, base: Base, key: Keys, cutoff: int) -> Callable:
    """Task processor for the forked pool.

    A task is a vertex id v, standing for `_vertex_child(adj, base, key,
    v)`, which the handler builds; or a (K, cand, fini) triple, a node
    donated by an earlier task, whose cand and fini sets it consumes.
    Either runs as a task of the kernel; the task and each node in it with
    |cand| >= cutoff check hungry() once, and only when the shared queue
    is hungry is the node unrolled, at O(Σ deg q) over its branch vertices
    q, and its children given to spawn as one batch (the pool sends it as
    a few queue messages). Otherwise the node is searched in place.
    """
    adj = g.adj_sets

    def handle(task, emit, spawn, hungry) -> None:
        def split(K: list[int], cand, fini, F: list[int] | None = None) -> bool:
            if not hungry():
                return False
            if F is not None:
                cand, fini = _ids(F, cand), _ids(F, fini)
            spawn(unrolled_children(g, tuple(K), cand, fini))
            return True

        if isinstance(task, int):
            K, cand, fini = _vertex_child(adj, base, key, task)
        else:
            K, cand, fini = task
        _task(adj, list(K), cand, fini, emit, split, cutoff)

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
    tasks, base, key = _branch_tasks(g, tuple(sorted(sp.K)), sp.cand, sp.fini)
    handler = _make_task_handler(g, base, key, config.cutoff)
    run_task_pool(tasks, handler, config, sink)


# -- per-vertex decomposition -------------------------------------------------


def subproblem_for_vertex(g: Graph, rank: RankAssignment, v: int) -> Subproblem:
    """The vertex-v decomposition root: K={v}, neighborhood split by rank."""
    g._check_vertex(v)
    adj, values, n = g.adj_sets, rank.values, g.n
    key = {w: values[w] * n + w for w in adj[v]}
    key[v] = values[v] * n + v
    K, cand, fini = _vertex_child(adj, ((), None, set()), key, v)
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
    values, n = rank.values, g.n
    key = [values[w] * n + w for w in range(n)]
    order = sorted(range(n), key=key.__getitem__)
    base: Base = ((), None, set())
    if config.threads == 1:
        adj = g.adj_sets
        for v in order:
            K, cand, fini = _vertex_child(adj, base, key, v)
            _task(adj, list(K), cand, fini, sink.emit)
    else:
        handler = _make_task_handler(g, base, key, config.cutoff)
        run_task_pool(order, handler, config, sink)
