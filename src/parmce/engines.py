"""The three enumeration engines: tasks run through one handler and one kernel.

Every engine is a list of tasks that one loop (`_run`) hands to one
handler (`_make_task_handler`), in order at one thread, else on the
worker pool; cliques leave in chunks either way. A task is a (K, cand,
fini) triple, or a vertex v standing for child v of the whole graph
under a strict vertex order (`_vertex_child`): K = (v,), with Γ(v) split
into the vertices after v (cand) and before v (fini). A worker builds it
from Γ(v) alone.

ttt      - sequential pivoted backtracking; par_ttt at one thread.
par_ttt  - the same search on a worker pool. On the whole graph the
           driver takes the root's branching step once (`_root_tasks`):
           every pivot score is a degree, so it reads the pivot off the
           degree table, and the order puts the branch vertices first, by
           id, so branch vertex q's vertex child is iteration q of the
           loop, in O(n + Δ) instead of an O(m) scan. A subproblem passed
           in is one (K, cand, fini) task, the form a donated node takes.
par_mce  - one vertex task per vertex v of the whole graph (clique seed
           {v}), ordered by the ranking, so each maximal clique is produced
           exactly once, in the task of its lowest-ranked member; tasks run
           costliest-first.

The kernel searches a task (K, cand, fini) in a frame: a list F of ids
in ascending order, bit i standing for F[i], one int bit mask per
vertex for its neighbours, and cand and fini as two masks. A frame's
rows come from one of two sources, chosen once per graph by its density
(`_whole_rows_pay`). On a graph with n <= 64 × average degree (n² <=
128 m), the handler builds one row per vertex over the whole graph, in
the driver before the pool forks, so workers share it copy-on-write; F
is every id, and a task's frame costs only its two masks. The table
holds n²/8 <= 16 m bytes of bits, 8 per adjacency entry. On a sparser
graph each task builds its own frame: F is cand ∪ fini, and each row
covers only F. A vertex task, a donated node and a subproblem with q in
K lie inside Γ(q), so their frames have at most Δ members (a per-task
frame at most Δ bits); an explicit subproblem with an empty K is framed
whole, and the whole graph's root is never framed. Either way pivot ties
and branch order follow vertex ids, so the search tree and the order of
the cliques are those of the same search on id sets; each clique is
emitted unsorted, in the order its vertices joined K. A task whose
candidates share no edge, and a child with fewer than three candidates,
are decided in closed form; finished vertices with no candidate
neighbour are left out of the frame. A worker searches the root of each
task it takes and may donate nodes below it (`_CUTOFF`), so a donated
task's K is longer than its donor's.

All engines emit the same set of cliques for the same graph; only order
and scheduling differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph
from .parallel import ParallelConfig, chunker, run_task_pool
from .pivoting import select_pivot
from .ranking import RankAssignment
from .sinks import CliqueSink

Child = tuple[tuple[int, ...], set[int], set[int]]
Emit = Callable[[tuple[int, ...]], None]
# A node's split hook split(K, cand, fini, F): True if it took the node away;
# cand and fini are bit masks over the frame F.
Split = Callable[[list[int], int, int, Sequence[int]], bool]
# Whole-graph rows (ids, rows): rows[v] is the bit mask of Γ(v) over ids.
Rows = tuple[list[int], list[int]]

# A search node below a task's root whose cand has at least _CUTOFF
# vertices asks once, when it is visited, whether the driver holds fewer
# than 2 × workers batches; only then is it donated, whole, as one new
# task. A task's root is never donated, nor is a node with fewer than
# three candidates (decided in closed form), nor any at one thread.
_CUTOFF = 16


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
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range [0, {g.n})")
        adj = g.adj_sets
        for a in self.K:
            for b in self.K:
                if a != b and b not in adj[a]:
                    raise ValueError(f"K is not a clique: {a} and {b} not adjacent")
        for w in self.cand | self.fini:
            for k in self.K:
                if w not in adj[k]:
                    raise ValueError(f"{w} in cand/fini is not adjacent to {k} in K")


# -- the search kernel --------------------------------------------------------


def _ids(F: Sequence[int], mask: int) -> set[int]:
    """The vertex ids of a frame's bit mask, in time proportional to its
    set bits, not to the frame's width."""
    ids = set()
    while mask:
        low = mask & -mask
        ids.add(F[low.bit_length() - 1])
        mask ^= low
    return ids


def _kernel(
    F: Sequence[int],
    rows: Sequence[int],
    K: list[int],
    cand: int,
    fini: int,
    emit: Emit,
    split: Split,
    cutoff: int,
) -> None:
    """Pivoted backtracking on the bit masks of a frame; cand has an edge.

    Bit i stands for vertex F[i], F ascending, and rows[i] is the mask of
    Γ(F[i]) in the frame: the whole neighbourhood on whole-graph rows, and
    in a per-task frame only the cand part for a vertex that starts in
    fini. The kernel reads a row only through cand or fini, so both give
    the same search. The pivot is the first bit of cand | fini with the
    most of cand in its row, and the branches are the bits of cand minus
    the pivot's row in ascending order, so ties, branches and the order of
    the cliques follow vertex ids exactly as a search over id sets would;
    each clique is the tuple (*K, ...) in K's order, unsorted. A child with
    fewer than three candidates is decided in place, in closed form; any
    other child with at least cutoff candidates asks the split hook
    (`Split`) first.
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
                emit(tuple(K))
        elif not c & (c - 1):
            a = c.bit_length() - 1
            if not f & rows[a]:
                emit((*K, F[a]))
        else:
            nc = c.bit_count()
            if nc == 2:
                a = (c & -c).bit_length() - 1
                b = c.bit_length() - 1
                ra = rows[a]
                if ra >> b & 1:
                    if not f & ra & rows[b]:
                        emit((*K, F[a], F[b]))
                else:
                    if not f & ra:
                        emit((*K, F[a]))
                    if not f & rows[b]:
                        emit((*K, F[b]))
            elif nc < cutoff or not split(K, c, f, F):
                _kernel(F, rows, K, c, f, emit, split, cutoff)
        K.pop()


def _frame(
    adj: tuple[frozenset[int], ...], whole: Rows | None, cand: set[int], fini: set[int]
) -> tuple[Sequence[int], Sequence[int], int, int]:
    """(F, rows, cand mask, fini mask) of a task; fini vertices with no
    neighbour in cand are left out.

    With the whole-graph rows (`_graph_rows`), F is every id and the rows
    are shared, so only the two masks are built. Otherwise the frame is the
    task's own: F is cand ∪ fini ascending, and a fini vertex's row keeps
    only its cand part, the only part the kernel reads.
    """
    if whole is not None:
        F, rows = whole
        cmask = sum(map((1).__lshift__, cand))
        return F, rows, cmask, sum(1 << w for w in fini if rows[w] & cmask)
    fini = [w for w in fini if not cand.isdisjoint(adj[w])]
    S = cand.union(fini)
    F = sorted(S)
    get = {v: 1 << i for i, v in enumerate(F)}.__getitem__
    rows = [sum(map(get, adj[u] & (S if u in cand else cand))) for u in F]
    fmask = sum(map(get, fini))
    return F, rows, ((1 << len(F)) - 1) ^ fmask, fmask


def _whole_rows_pay(n: int, m: int) -> bool:
    """Whether a graph's tasks search whole-graph rows: n <= 64 × average
    degree, i.e. n² <= 128 m. Its n rows of n bits then hold n²/8 <= 16 m
    bytes of bits, 8 per adjacency entry, less than its frozensets hold."""
    return n * n <= 128 * m


def _graph_rows(adj: tuple[frozenset[int], ...]) -> Rows | None:
    """(ids, rows) when `_whole_rows_pay`, else None: ids is [0, ..., n-1]
    and rows[v] is Γ(v) as a bit mask over ids, bit u for vertex u."""
    if not _whole_rows_pay(len(adj), sum(map(len, adj)) // 2):
        return None
    return list(range(len(adj))), [sum(map((1).__lshift__, nbrs)) for nbrs in adj]


def _task(
    adj: tuple[frozenset[int], ...],
    whole: Rows | None,
    K: list[int],
    cand: set[int],
    fini: set[int],
    emit: Emit,
    split: Split,
    cutoff: int,
) -> None:
    """Search one task given as id sets: closed forms, else frame and kernel.

    The task's own root is always searched here; split and cutoff pass to
    the kernel, which offers the nodes below it. A task with no candidate
    yields K iff fini is empty. One whose candidates share no edge is
    decided without a search: any pivot branches on the candidates outside
    its neighbourhood, ascending, and each child has an empty cand, so q
    yields K + q iff no fini vertex touches q. Any other task is framed on
    the graph's rows, whole (not None) or its own, and goes to the
    kernel, after the fini vertices with no neighbour in cand are dropped:
    none reaches a descendant's fini, and one can win the pivot only at
    score 0, where every pivot branches on all of cand.
    """
    if not cand:
        if not fini:
            emit(tuple(K))
        return
    if all(cand.isdisjoint(adj[q]) for q in cand):
        for q in sorted(cand):
            if fini.isdisjoint(adj[q]):
                emit((*K, q))
        return
    F, rows, cmask, fmask = _frame(adj, whole, cand, fini)
    _kernel(F, rows, K, cmask, fmask, emit, split, cutoff)


# -- vertex tasks: the children of the whole graph ---------------------------


def _vertex_child(adj: tuple[frozenset[int], ...], key: Sequence[int], v: int) -> Child:
    """Child v of the whole graph under the strict vertex order key.

    ((v,), the members of Γ(v) after v, the members before v): O(deg v),
    with fresh sets.
    """
    kv = key[v]
    cand: set[int] = set()
    fini: set[int] = set()
    for w in adj[v]:
        if key[w] > kv:
            cand.add(w)
        else:
            fini.add(w)
    return (v,), cand, fini


def _root_tasks(adj: tuple[frozenset[int], ...]) -> tuple[list[int], list[int]]:
    """The whole graph's branching step as vertex tasks: (ext, key); n >= 1.

    With cand every vertex and fini empty, each pivot score |cand ∩ Γ(w)|
    is deg(w), so the pivot is the first vertex of largest degree, read
    off the degree table. ext, the branch vertices, is every vertex
    outside Γ(pivot), ascending; each keeps its id as its key and every
    other vertex's key is n, so branch vertex q's vertex child is
    iteration q of the branching loop (`unrolled_children`). O(n + Δ).
    """
    n = len(adj)
    degrees = list(map(len, adj))
    key = list(range(n))
    for w in adj[degrees.index(max(degrees))]:
        key[w] = n
    # the branch vertices are those that kept their ids as keys
    return list(filter(n.__gt__, key)), key


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
    never on sibling iterations, and costs O(deg q). cand and fini must be
    `set`s; they are not changed, and the children's sets are fresh `set`s.
    Requires nonempty cand ∪ fini. No engine calls it: the whole graph's
    children are its vertex tasks (`_root_tasks`), and any other task
    branches inside the kernel.
    """
    adj = g.adj_sets
    children = []
    earlier: set[int] = set()
    for q in sorted(cand - adj[select_pivot(g, cand, fini)]):
        nq = adj[q]
        children.append((K + (q,), (cand & nq) - earlier, (fini & nq) | (earlier & nq)))
        earlier.add(q)
    return children


def _make_task_handler(g: Graph, key: Sequence[int], cutoff: int) -> Callable:
    """The one task processor: the pool's handler, and `_run`'s at one thread.

    A task is a vertex id v, standing for `_vertex_child(adj, key, v)`,
    which the handler builds; or a (K, cand, fini) triple, such as a
    donated node, whose sets it reads but does not change. Its root is
    searched here. A node below it with |cand| >= cutoff is given to spawn,
    as one triple read off the masks, if hungry() says so; otherwise it is
    searched in place. The graph's row source (`_graph_rows`) is chosen and
    built here, once per run, in the driver, so pool workers inherit it.
    """
    adj = g.adj_sets
    whole = _graph_rows(adj)

    def handle(task, emit, spawn, hungry) -> None:
        def split(K: list[int], cand: int, fini: int, F: Sequence[int]) -> bool:
            if not hungry():
                return False
            spawn((tuple(K), _ids(F, cand), _ids(F, fini)))
            return True

        if isinstance(task, int):
            K, cand, fini = _vertex_child(adj, key, task)
        else:
            K, cand, fini = task
        _task(adj, whole, list(K), cand, fini, emit, split, cutoff)

    return handle


def _run(
    g: Graph, sink: CliqueSink, config: ParallelConfig, tasks: list, key: Sequence[int] = ()
) -> None:
    """Run tasks (vertex tasks under key) through the one handler: in order
    at one thread, where nothing is donated, else on the pool, which takes
    donated nodes (`_CUTOFF`). Either way cliques reach the sink through
    `chunker`, encode then take."""
    handle = _make_task_handler(g, key, _CUTOFF)
    if config.threads > 1:
        run_task_pool(tasks, handle, config, sink)
        return
    emit, flush = chunker(sink, sink.take)
    for task in tasks:
        handle(task, emit, None, lambda: False)
    flush()


# -- the engines --------------------------------------------------------------


def ttt(g: Graph, subproblem: Subproblem | None, sink: CliqueSink) -> None:
    """Emit every maximal clique extending the subproblem (default: all of g).

    This is par_ttt at one thread: the whole graph's children run as
    vertex tasks, in branch order, and a subproblem passed in is one task.
    """
    par_ttt(g, subproblem, sink)


def par_ttt(
    g: Graph,
    subproblem: Subproblem | None,
    sink: CliqueSink,
    config: ParallelConfig = ParallelConfig(),
) -> None:
    """ttt whose subtrees may run on a pool; emits exactly ttt's clique set.

    The default, the whole graph, takes its branching step off the degree
    table (`_root_tasks`) and runs each branch vertex, ascending, as a
    vertex task whose child the worker builds, so its root is never
    framed. A subproblem passed in is validated, then queued as one
    (K, cand, fini) task, the form a donated node takes, unless K and cand
    are both empty; its root is searched whole, so on the pool only the
    nodes donated below it run in parallel.
    """
    if subproblem is None:
        if g.n:
            _run(g, sink, config, *_root_tasks(g.adj_sets))
        return
    sp = subproblem
    sp.validate(g)
    if sp.K or sp.cand:
        _run(g, sink, config, [(tuple(sorted(sp.K)), set(sp.cand), set(sp.fini))])


# -- per-vertex decomposition -------------------------------------------------


def subproblem_for_vertex(g: Graph, rank: RankAssignment, v: int) -> Subproblem:
    """The vertex-v decomposition root, par_mce's vertex task v: K={v}, and
    Γ(v) split into the vertices after v in the rank order (cand) and
    before it (fini)."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range [0, {g.n})")
    kv = rank.key(v)
    cand = frozenset(w for w in g.adj_sets[v] if rank.key(w) > kv)
    return Subproblem(frozenset({v}), cand, g.adj_sets[v] - cand)


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
    key = list(map(rank.key, range(g.n)))
    order = sorted(range(g.n), key=key.__getitem__)
    _run(g, sink, config, order, key)
