import os
import sys
from itertools import count
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import parmce as P
import parmce.engines as engines
from parmce.cli import parse_generator_spec
from parmce.engines import (
    Subproblem,
    _graph_rows,
    _make_task_handler,
    _root_tasks,
    _task,
    _vertex_child,
    subproblem_for_vertex,
    unrolled_children,
)
from parmce.pivoting import select_pivot
from parmce.sinks import CountingSink

from util import (
    CollectSink,
    ascending,
    assert_all_maximal_cliques,
    canonical_run,
    donation_cutoff,
    incremental_children,
    reference_ttt,
    run_engine,
    walk_lockstep,
    whole_graph_subproblem,
)

K3 = P.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = P.Graph.from_edges(3, [(0, 1), (1, 2)])


class TestTTT:
    def test_triangle(self):
        assert canonical_run("ttt", K3) == ((0, 1, 2),)

    def test_path(self):
        assert canonical_run("ttt", PATH3) == ((0, 1), (1, 2))

    def test_isolated_vertices_are_maximal(self):
        g = P.Graph.from_edges(2, [])
        assert canonical_run("ttt", g) == ((0,), (1,))

    def test_null_graph_emits_nothing(self):
        g = P.Graph.from_edges(0, [])
        for engine in ("ttt", "parttt", "parmce"):
            assert canonical_run(engine, g) == ()
            if engine != "ttt":
                assert canonical_run(engine, g, threads=2) == ()

    def test_unsatisfiable_subproblem_emits_nothing(self):
        g = P.Graph.from_edges(2, [(0, 1)])
        sp = Subproblem(frozenset({0}), frozenset(), frozenset({1}))
        for engine in (P.ttt, P.par_ttt):
            sink = CollectSink()
            engine(g, sp, sink)
            assert sink.cliques == []

    def test_explicit_subproblem_scopes_search(self):
        # only cliques containing K and avoiding fini
        sink = CollectSink()
        P.ttt(K3, Subproblem(frozenset({0}), frozenset({1, 2}), frozenset()), sink)
        assert sink.cliques == [(0, 1, 2)]

    def test_invalid_subproblem_rejected(self):
        with pytest.raises(ValueError):
            Subproblem(frozenset({0}), frozenset({0}), frozenset()).validate(K3)
        with pytest.raises(ValueError):
            # K not a clique
            Subproblem(frozenset({0, 2}), frozenset(), frozenset()).validate(PATH3)
        with pytest.raises(ValueError):
            # fini vertex not adjacent to K
            Subproblem(frozenset({0}), frozenset(), frozenset({2})).validate(PATH3)


class TestParTTT:
    @pytest.mark.parametrize(
        "g", [P.gen_gnp(50, p, seed) for p, seed in ((0.3, 0), (0.5, 1), (0.7, 2))]
        + [P.gen_moon_moser(4)],
    )
    def test_default_root_stream_is_explicit_root_stream(self, g):
        # None takes the branching step straight off the whole graph; an
        # explicit root is validated, then searched as one task, and must
        # give the same stream
        for cutoff in (1, 16):
            default, explicit = CollectSink(), CollectSink()
            with donation_cutoff(cutoff):
                P.par_ttt(g, None, default)
                P.par_ttt(g, whole_graph_subproblem(g), explicit)
            assert default.cliques == explicit.cliques
            assert default.cliques

    @pytest.mark.parametrize(
        "sp",
        [
            Subproblem(frozenset({0, 2}), frozenset({1}), frozenset()),  # K not a clique
            Subproblem(frozenset(), frozenset({0, 1}), frozenset({1})),  # not disjoint
            Subproblem(frozenset({0}), frozenset({1}), frozenset({2})),  # 2 not by 0
            Subproblem(frozenset(), frozenset({0, 1, 2, 3}), frozenset()),  # 3 not a vertex
        ],
    )
    def test_caller_subproblem_is_validated(self, sp):
        for engine in (P.ttt, P.par_ttt):
            sink = CollectSink()
            with pytest.raises(ValueError):
                engine(PATH3, sp, sink)
            assert sink.cliques == []

    def test_moon_moser_2(self):
        fam = canonical_run("parttt", P.gen_moon_moser(2), threads=2, cutoff=2)
        assert len(fam) == 9
        assert all(len(c) == 2 for c in fam)

    def test_triangle_any_budget(self):
        for threads in (1, 2, 3):
            assert canonical_run("parttt", K3, threads=threads) == ((0, 1, 2),)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_matches_ttt_on_random_graphs(self, seed):
        g = P.gen_gnp(12, 0.5, seed)
        assert canonical_run("parttt", g, cutoff=3) == canonical_run("ttt", g)

    def test_pool_path_matches_ttt(self):
        for seed in range(6):
            g = P.gen_gnp(25, 0.4, seed)
            assert canonical_run("parttt", g, threads=2, cutoff=4) == canonical_run(
                "ttt", g
            )

    def test_spawn_storm_with_unit_cutoff(self):
        g = P.gen_gnp(30, 0.4, 1)
        for engine in ("parttt", "parmce"):
            assert canonical_run(engine, g, threads=2, cutoff=1) == canonical_run(
                "ttt", g
            )

    def test_listing_through_pool(self):
        g = P.gen_gnp(30, 0.4, 2)
        sink = CollectSink()
        with donation_cutoff(4):
            P.par_ttt(g, None, sink, P.ParallelConfig(threads=2))
        assert P.canonical_family(sink.cliques) == canonical_run("ttt", g)

    @pytest.mark.parametrize("part", ["root", "partial"])
    def test_explicit_empty_K_is_shared_by_donation(self, part):
        # one task: the worker that takes it searches its root, and the
        # other worker gets only nodes donated from below that root
        g = P.gen_gnp(60, 0.4, 2)
        if part == "root":
            sp = whole_graph_subproblem(g)
        else:
            sp = Subproblem(frozenset(), frozenset(range(1, g.n)), frozenset({0}))

        class ByWorker(CollectSink):
            def __init__(self):
                super().__init__()
                self.pids = set()

            def encode(self, cliques):
                return os.getpid(), cliques

            def take(self, payload):
                self.pids.add(payload[0])
                super().take(payload[1])

        sink = ByWorker()
        with donation_cutoff(3):
            P.par_ttt(g, sp, sink, P.ParallelConfig(threads=2))
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, [], set(sp.cand), set(sp.fini), expected.append)
        assert sorted(ascending(sink.cliques)) == sorted(expected)
        assert len(sink.pids) == 2, "no node was donated to the second worker"

    def test_empty_cand_on_the_pool_is_a_leaf(self):
        # K is emitted when fini is empty too, and nothing otherwise
        g = P.Graph.from_edges(3, [(0, 1)])
        for sp, expected in [
            (Subproblem(frozenset({2}), frozenset(), frozenset()), [(2,)]),
            (Subproblem(frozenset({0, 1}), frozenset(), frozenset()), [(0, 1)]),
            (Subproblem(frozenset({0}), frozenset(), frozenset({1})), []),
        ]:
            sink = CollectSink()
            with donation_cutoff(2):
                P.par_ttt(g, sp, sink, P.ParallelConfig(threads=2))
            assert sink.cliques == expected


class TestLoopUnrolling:
    def test_lockstep_on_small_graphs(self):
        for seed in range(8):
            g = P.gen_gnp(14, 0.5, seed)
            walk_lockstep(g, validate=True)

    def test_children_cover_branch_set(self):
        g = P.gen_gnp(12, 0.5, 3)
        cand = set(range(g.n))
        children = unrolled_children(g, (), cand, set())
        pivot = select_pivot(g, cand, set())
        assert [c[0][-1] for c in children] == sorted(cand - g.adj_sets[pivot])
        for kq, cq, fq in children:
            q = kq[-1]
            assert cq <= g.adj_sets[q]
            assert fq <= g.adj_sets[q]
            assert not cq & fq

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.lists(st.sampled_from(["cand", "fini", "out"]), min_size=1, max_size=14),
    )
    @settings(max_examples=150)
    def test_matches_incremental_on_arbitrary_subproblems(self, seed, p, roles):
        # any disjoint (cand, fini), not only the root; K is carried through
        g = P.gen_gnp(len(roles), p, seed)
        cand = {v for v, r in enumerate(roles) if r == "cand"}
        fini = {v for v, r in enumerate(roles) if r == "fini"}
        assume(cand or fini)
        args = (set(cand), set(fini))
        K = (len(roles),)
        unrolled = unrolled_children(g, K, cand, fini)
        assert (cand, fini) == args, "arguments must not be mutated"
        assert unrolled == incremental_children(g, K, cand, fini)
        for _, cq, fq in unrolled:
            assert type(cq) is set and type(fq) is set

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.3, 0.6, 0.9]),
        st.lists(st.sampled_from(["K", "cand", "fini", "out"]), min_size=1, max_size=14),
    )
    @settings(max_examples=150)
    def test_matches_incremental_on_valid_subproblems(self, seed, p, roles):
        # K a clique of real vertices, cand and fini inside its common
        # neighbourhood: each child is itself a valid subproblem
        g = P.gen_gnp(len(roles), p, seed)
        sp = random_subproblem(g, roles)
        assume(sp.cand)
        K = tuple(sorted(sp.K))
        built = unrolled_children(g, K, set(sp.cand), set(sp.fini))
        assert built == incremental_children(g, K, sp.cand, sp.fini)
        for Kq, cq, fq in built:
            assert type(cq) is set and type(fq) is set
            Subproblem(frozenset(Kq), frozenset(cq), frozenset(fq)).validate(g)


def random_subproblem(g: P.Graph, roles: list[str]) -> Subproblem:
    """A valid (K, cand, fini): K a clique of the "K" vertices met in id
    order, cand and fini the "cand" and "fini" vertices adjacent to all of K."""
    adj = g.adj_sets
    K: list[int] = []
    for v, r in enumerate(roles):
        if r == "K" and all(v in adj[k] for k in K):
            K.append(v)
    common = set(range(g.n)).difference(K).intersection(*(adj[k] for k in K))
    cand = frozenset(v for v in common if roles[v] == "cand")
    fini = frozenset(v for v in common if roles[v] == "fini")
    return Subproblem(frozenset(K), cand, fini)



class TestVertexTasks:
    """The whole graph's branching step runs as vertex tasks: branch vertex
    q's child, built by _vertex_child from _root_tasks' order, must be
    exactly the child the sequential loop makes with in-place cand/fini
    updates (`util.incremental_children`)."""

    def test_root_children_are_unrolled_children(self):
        # the whole graph's pivot comes from the degree table; the reference
        # scans every vertex's score, so degree ties must break the same way
        graphs = [P.gen_gnp(40, 0.5, seed) for seed in range(3)] + [
            P.gen_moon_moser(4),
            P.gen_complete(6),
            P.Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
            P.Graph.from_edges(4, []),
        ]
        for g in graphs:
            expected = incremental_children(g, (), frozenset(range(g.n)), frozenset())
            ext, key = _root_tasks(g.adj_sets)
            built = [_vertex_child(g.adj_sets, key, q) for q in ext]
            assert built == expected
            assert built == unrolled_children(g, (), set(range(g.n)), set())
            assert [key[q] for q in ext] == ext
            assert all(key[w] == g.n for w in set(range(g.n)) - set(ext))


class TestSerialEnginesShareTheKernel:
    """At one thread par_ttt and par_mce run the kernel ttt runs, so their
    raw emission streams, order included, are ttt's."""

    @pytest.mark.parametrize("cutoff", [1, 4, 16])
    def test_par_ttt_stream_is_ttt_stream(self, cutoff):
        for seed in range(3):
            g = P.gen_gnp(40, 0.5, seed)
            assert run_engine("parttt", g, cutoff=cutoff) == run_engine("ttt", g)

    @pytest.mark.parametrize("cutoff", [1, 4, 16])
    def test_par_mce_stream_is_per_vertex_ttt_streams(self, cutoff):
        for seed in range(3):
            g = P.gen_gnp(40, 0.5, seed)
            rank = P.degree_rank(g)
            expected = CollectSink()
            for v in sorted(range(g.n), key=rank.key):
                P.ttt(g, subproblem_for_vertex(g, rank, v), expected)
            got = CollectSink()
            with donation_cutoff(cutoff):
                P.par_mce(g, rank, got, P.ParallelConfig(threads=1))
            assert got.cliques == expected.cliques


def search_as_vertex_tasks(adj, K, cand, fini, emit, split, cutoff) -> None:
    """ttt's search with a split hook on every node, split into tasks as
    par_ttt splits it: the whole graph (K and fini empty, cand every
    vertex) as the vertex tasks of its branch vertices (`_root_tasks`),
    and any other subproblem as one task. The subproblem's root and each
    task's root are offered to the hook here when they have >= cutoff
    candidates, as in `reference_ttt`; `_task` offers the nodes below.
    Every task is searched on the graph's row source (`_graph_rows`), as
    the task handler does."""
    whole = _graph_rows(adj)
    if len(cand) >= cutoff:
        split(K, cand, fini)
    if K or fini or len(cand) < len(adj):
        _task(adj, whole, K, cand, fini, emit, split, cutoff)
        return
    ext, key = _root_tasks(adj)
    for Kq, cq, fq in (_vertex_child(adj, key, q) for q in ext):
        if len(cq) >= cutoff:
            split(list(Kq), cq, fq)
        _task(adj, whole, list(Kq), cq, fq, emit, split, cutoff)


def row_source(whole: bool):
    """Patch the row rule to pick whole-graph rows (True) or per-task
    frames (False), whatever the graph's density."""
    return mock.patch.object(engines, "_whole_rows_pay", lambda n, m: whole)


def stream_and_nodes(search, g: P.Graph, sp: Subproblem):
    """Emissions of one search, in order, each clique's ids sorted, and its
    count of nodes with >= 3 candidates, taken by a split hook at cutoff 3
    that counts and declines."""
    out: list[tuple[int, ...]] = []
    nodes = [0]

    def count(K, cand, fini, F=None) -> bool:
        nodes[0] += 1
        return False

    search(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), out.append, count, 3)
    return ascending(out), nodes[0]


class TestBitKernel:
    """The bit-mask kernel against the set kernel it replaced
    (`util.reference_ttt`): the same emission stream, order included, once
    each clique's ids are sorted, and the same search tree, node for node,
    on whole-graph rows and on per-task frames alike."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        st.lists(
            st.sampled_from(["K", "cand", "cand", "cand", "fini", "out"]), min_size=1, max_size=24
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_stream_and_nodes_as_the_set_kernel(self, seed, p, roles):
        g = P.gen_gnp(len(roles), p, seed)
        sp = random_subproblem(g, roles)
        assume(sp.K or sp.cand or sp.fini)
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), expected.append)
        reference = stream_and_nodes(reference_ttt, g, sp)
        for whole in (True, False):
            with row_source(whole):
                got = CollectSink()
                P.ttt(g, sp, got)
                assert got.cliques == expected
                assert stream_and_nodes(search_as_vertex_tasks, g, sp) == reference

    @pytest.mark.parametrize("n, p", [(60, 0.5), (120, 0.3), (40, 0.8), (300, 0.03)])
    def test_same_stream_and_nodes_on_whole_graphs(self, n, p):
        for seed in range(2):
            g = P.gen_gnp(n, p, seed)
            sp = whole_graph_subproblem(g)
            reference = stream_and_nodes(reference_ttt, g, sp)
            assert reference[1] > 100
            for whole in (True, False):
                with row_source(whole):
                    got, nodes = stream_and_nodes(search_as_vertex_tasks, g, sp)
                    assert (got, nodes) == reference
                    assert got == run_engine("ttt", g)

    def test_moon_moser_stream(self):
        g = P.gen_moon_moser(6)
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, [], set(range(g.n)), set(), expected.append)
        assert run_engine("ttt", g) == expected
        assert len(expected) == 3**6


class FrameBuilt(Exception):
    pass


def no_frame(*args):
    raise FrameBuilt


class TestEdgelessCandidates:
    """A task whose candidates share no edge is decided without a frame,
    in the kernel's order: each candidate outside the pivot's
    neighbourhood, ascending, is a leaf."""

    CAND = {1, 8, 16}

    @classmethod
    def streams(cls, extra=(), fini=(2, 3)):
        # K = [0]; fini vertex 2 touches candidate 8 only, so it wins the
        # pivot, and fini vertex 3 touches no candidate
        g = P.Graph.from_edges(17, [(0, v) for v in (1, 2, 3, 8, 16)] + [(2, 8), *extra])
        got: list[tuple[int, ...]] = []
        expected: list[tuple[int, ...]] = []
        adj = g.adj_sets
        _task(adj, _graph_rows(adj), [0], set(cls.CAND), set(fini), got.append, lambda *a: False, 3)
        reference_ttt(adj, [0], set(cls.CAND), set(fini), expected.append)
        return got, expected

    @pytest.mark.parametrize(
        "fini, stream", [((2, 3), [(0, 1), (0, 16)]), ((3,), [(0, 1), (0, 8), (0, 16)])]
    )
    def test_no_edge_in_cand_is_decided_without_a_frame(self, monkeypatch, fini, stream):
        assert list(self.CAND) == [8, 1, 16]  # set order is not id order
        monkeypatch.setattr(engines, "_frame", no_frame)
        got, expected = self.streams(fini=fini)
        assert got == expected == stream

    def test_an_edge_in_cand_is_framed(self, monkeypatch):
        got, expected = self.streams(extra=[(1, 16)])
        assert got == expected == [(0, 1, 16)]
        monkeypatch.setattr(engines, "_frame", no_frame)
        with pytest.raises(FrameBuilt):
            self.streams(extra=[(1, 16)])

    def test_frames_built_on_a_sparse_graph(self, monkeypatch):
        # pinned, so that tasks cannot stop taking the closed form unnoticed:
        # framing every task with three or more candidates, ttt builds
        # 1,404 frames here and par_mce 1,610; two adjacent candidates are
        # framed, 2 of ttt's tasks here and 1 of par_mce's
        g = P.gen_gnp(2000, 0.005, 5)
        frame = engines._frame
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return frame(*args)

        monkeypatch.setattr(engines, "_frame", counted)
        family = canonical_run("ttt", g)
        assert calls == [142]
        calls[0] = 0
        assert canonical_run("parmce", g, order="degeneracy") == family
        assert calls == [148]


class TestFrameWidth:
    """Every frame of an engine's task lies inside one neighbourhood, so
    none has more than Δ(g) members (the set bits of its cand and fini
    masks); the whole graph's root is never framed. Only an explicit
    subproblem with an empty K is framed whole. A per-task frame holds
    only its members, so there len(F) is at most Δ too."""

    G = P.gen_gnp(80, 0.4, 5)

    def gated(self, monkeypatch, bound):
        widths: list[int] = []
        frame = engines._frame

        def checked(*args):
            F, rows, cmask, fmask = frame(*args)
            members = (cmask | fmask).bit_count()
            assert members <= bound, f"frame of {members} vertices, bound {bound}"
            widths.append(members)
            return F, rows, cmask, fmask

        monkeypatch.setattr(engines, "_frame", checked)
        return widths

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("engine", ["ttt", "parttt", "parmce"])
    def test_no_frame_wider_than_max_degree(self, monkeypatch, engine, threads):
        delta = max(map(len, self.G.adj_sets))
        assert delta < self.G.n
        expected: list[tuple[int, ...]] = []
        reference_ttt(self.G.adj_sets, [], set(range(self.G.n)), set(), expected.append)
        widths = self.gated(monkeypatch, delta)
        got = canonical_run(engine, self.G, threads=threads, cutoff=4)
        assert got == P.canonical_family(expected)
        if threads == 1:  # a forked worker's frames are not seen here
            assert widths and max(widths) <= delta

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("part", ["root", "partial"])
    def test_explicit_empty_K_gives_the_reference_family(self, part, threads):
        # one task each, framed whole: its frame may be wider than Δ
        n = self.G.n
        if part == "root":
            sp = whole_graph_subproblem(self.G)
        else:
            sp = Subproblem(
                frozenset(),
                frozenset(v for v in range(n) if v % 3),
                frozenset(v for v in range(n) if v % 6 == 0),
            )
        expected: list[tuple[int, ...]] = []
        reference_ttt(self.G.adj_sets, [], set(sp.cand), set(sp.fini), expected.append)
        got = CollectSink()
        with donation_cutoff(4):
            P.par_ttt(self.G, sp, got, P.ParallelConfig(threads=threads))
        assert P.canonical_family(got.cliques) == P.canonical_family(expected)
        if part == "root":
            assert P.canonical_family(expected) == canonical_run("ttt", self.G)

    def test_vertex_subproblems_are_framed_within_max_degree(self, monkeypatch):
        # a subproblem with K = {v} is framed whole, inside Γ(v)
        delta = max(map(len, self.G.adj_sets))
        widths = self.gated(monkeypatch, delta)
        rank = P.compute_rank(self.G, "degree")
        got = CollectSink()
        for v in range(self.G.n):
            P.ttt(self.G, subproblem_for_vertex(self.G, rank, v), got)
        assert P.canonical_family(got.cliques) == canonical_run("ttt", self.G)
        assert widths

    def test_per_task_frames_are_within_max_degree(self, monkeypatch):
        # below the density rule each task builds its own frame, F its members
        g = P.gen_gnp(2000, 0.005, 5)
        assert _graph_rows(g.adj_sets) is None
        delta = max(map(len, g.adj_sets))
        frame = engines._frame
        lengths: list[int] = []

        def checked(*args):
            F, rows, cmask, fmask = frame(*args)
            assert len(F) == (cmask | fmask).bit_count() <= delta
            lengths.append(len(F))
            return F, rows, cmask, fmask

        family = canonical_run("ttt", g)
        monkeypatch.setattr(engines, "_frame", checked)
        for engine in ("ttt", "parttt", "parmce"):
            assert canonical_run(engine, g, cutoff=4) == family
        assert lengths

    def test_the_gate_reaches_pool_workers(self, monkeypatch):
        self.gated(monkeypatch, 1)
        for engine in ("parttt", "parmce"):
            with pytest.raises(RuntimeError, match="frame of"):
                run_engine(engine, self.G, threads=2, cutoff=4)


class TestSplitPolicy:
    """The handler searches every task's root itself, and donates a node
    below it, as one task, only when the queue is hungry. G is dense, so
    its tasks search the whole-graph rows."""

    G = P.gen_gnp(40, 0.5, 3)
    ROOT = ((), frozenset(range(40)), frozenset())
    WHOLE_ROWS = True

    def test_takes_its_row_source(self):
        assert (_graph_rows(self.G.adj_sets) is not None) == self.WHOLE_ROWS

    def handle(self, task, cutoff, hungry):
        spawned, emitted = [], []
        handle = _make_task_handler(self.G, _root_tasks(self.G.adj_sets)[1], cutoff)
        K, cand, fini = task
        handle((K, set(cand), set(fini)), emitted.append, spawned.append, hungry)
        return spawned, emitted

    def reference(self, takes):
        """reference_ttt on the root, whose hook takes the i-th node it is
        offered when takes(i) (the root itself is node 0); each taken node
        as the (K, cand, fini) task the handler would spawn."""
        taken, expected = [], []
        calls = count()

        def split(K, cand, fini):
            if takes(next(calls)):
                taken.append((tuple(K), set(cand), set(fini)))
                return True
            return False

        reference_ttt(self.G.adj_sets, [], set(range(self.G.n)), set(), expected.append, split, 4)
        return taken, expected

    def test_not_hungry_searches_in_place(self):
        spawned, emitted = self.handle(self.ROOT, cutoff=4, hungry=lambda: False)
        assert spawned == []
        assert P.canonical_family(emitted) == canonical_run("ttt", self.G)

    def test_hungry_searches_the_root_and_donates_each_node_whole(self):
        spawned, emitted = self.handle(self.ROOT, cutoff=4, hungry=lambda: True)
        taken, expected = self.reference(lambda i: i > 0)
        assert spawned == taken
        assert ascending(emitted) == expected
        # the root is searched here, so every donated node is one of its children
        assert spawned and all(len(K) == 1 for K, _, _ in spawned)

    def test_a_node_inside_the_kernel_is_donated_as_one_triple(self):
        # hungry at the second ask only: the task's root is never offered,
        # its first node with >= cutoff candidates is searched, and the next
        # one, the first node below that, is taken
        asks = iter([False, True])
        spawned, emitted = self.handle(self.ROOT, cutoff=4, hungry=lambda: next(asks, False))
        taken, expected = self.reference(lambda i: i == 2)
        assert len(taken) == 1 and len(taken[0][0]) == 2
        assert spawned == taken
        assert ascending(emitted) == expected

    def test_every_donated_task_has_a_longer_K_than_its_donor(self):
        # always hungry: every task, donated ones too, runs from one stack
        stack, emitted, donated = [self.ROOT], [], 0
        while stack:
            task = stack.pop()
            spawned, got = self.handle(task, cutoff=3, hungry=lambda: True)
            for child in spawned:
                assert len(child[0]) > len(task[0])
                stack.append(child)
            donated += len(spawned)
            emitted += got
        assert donated > 100
        assert P.canonical_family(emitted) == canonical_run("ttt", self.G)

    def test_cutoff_above_n_never_donates(self):
        spawned, emitted = self.handle(self.ROOT, cutoff=self.G.n + 1, hungry=lambda: True)
        assert spawned == []
        assert P.canonical_family(emitted) == canonical_run("ttt", self.G)


class TestSplitPolicyOnPerTaskFrames(TestSplitPolicy):
    """The same on a graph below the density rule: TestSplitPolicy's G
    and 1,600 isolated vertices, so each task builds its own frame and the
    root's frame is 1,640 wide."""

    G = P.Graph([*TestSplitPolicy.G.adj_sets, *[()] * 1600])
    ROOT = ((), frozenset(range(G.n)), frozenset())
    WHOLE_ROWS = False


class TestRowRule:
    """Whole-graph rows are built when n <= 64 × average degree, once per
    run, in the driver, and take at most 8 bytes per adjacency entry."""

    @pytest.mark.parametrize(
        "spec, whole",
        [("gnp:600,0.2,1", True), ("moonmoser:10", True), ("gnp:2000,0.005,5", False)],
    )
    def test_density_picks_the_row_source(self, spec, whole):
        g = parse_generator_spec(spec)
        rows = _graph_rows(g.adj_sets)
        assert (rows is not None) == whole
        if whole:
            ids, table = rows
            assert ids == list(range(g.n))
            assert table == [sum(1 << u for u in nbrs) for nbrs in g.adj_sets]
            size = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
            assert size <= 8 * 2 * g.m

    def test_the_rule_is_n_squared_at_most_128_m(self):
        # n = 64 × average degree exactly, then one edge short of it
        assert engines._whole_rows_pay(640, 3200)
        assert not engines._whole_rows_pay(640, 3199)

    @pytest.mark.parametrize("engine", ["ttt", "parttt", "parmce"])
    def test_rows_are_built_once_per_run_before_the_fork(self, monkeypatch, engine):
        g = P.gen_gnp(80, 0.4, 5)
        build = engines._graph_rows
        calls = []

        def counted(adj):
            calls.append(os.getpid())
            return build(adj)

        monkeypatch.setattr(engines, "_graph_rows", counted)
        family = canonical_run(engine, g, threads=2, cutoff=4)
        assert calls == [os.getpid()]
        assert family == canonical_run("ttt", g)


class TestSubproblemForVertex:
    def test_star_center_gets_everything_finished(self):
        g = P.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        rank = P.degree_rank(g)
        sp = subproblem_for_vertex(g, rank, 0)
        assert (sp.K, sp.cand, sp.fini) == ({0}, frozenset(), {1, 2, 3})
        sp1 = subproblem_for_vertex(g, rank, 1)
        assert (sp1.K, sp1.cand, sp1.fini) == ({1}, {0}, frozenset())

    def test_isolated_vertex(self):
        g = P.Graph.from_edges(3, [(0, 1)])
        sp = subproblem_for_vertex(g, P.degree_rank(g), 2)
        assert (sp.K, sp.cand, sp.fini) == ({2}, frozenset(), frozenset())

    def test_satisfies_invariants(self):
        g = P.gen_gnp(20, 0.4, 9)
        rank = P.triangle_counts(g)
        for v in range(g.n):
            subproblem_for_vertex(g, rank, v).validate(g)

    def test_out_of_range(self):
        for v in (-1, 3):
            with pytest.raises(IndexError, match="out of range"):
                subproblem_for_vertex(K3, P.degree_rank(K3), v)


class TestParMCE:
    def per_vertex_emissions(self, g, rank, config=P.ParallelConfig()):
        out = {}
        for v in range(g.n):
            sink = CollectSink()
            P.par_ttt(g, subproblem_for_vertex(g, rank, v), sink, config)
            out[v] = P.canonical_family(sink.cliques)
        return out

    def test_triangle_only_lowest_vertex_emits(self):
        per_v = self.per_vertex_emissions(K3, P.degree_rank(K3))
        assert per_v[0] == ((0, 1, 2),)
        assert per_v[1] == ()
        assert per_v[2] == ()
        assert canonical_run("parmce", K3) == ((0, 1, 2),)

    def test_path_split_by_degree_order(self):
        per_v = self.per_vertex_emissions(PATH3, P.degree_rank(PATH3))
        assert per_v == {0: ((0, 1),), 1: (), 2: ((1, 2),)}
        assert canonical_run("parmce", PATH3) == ((0, 1), (1, 2))

    def test_isolated_vertex_is_emitted(self):
        g = P.Graph.from_edges(3, [(0, 1)])
        assert canonical_run("parmce", g) == ((0, 1), (2,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_all_rankings_agree_with_oracle(self, seed):
        g = P.gen_gnp(10, 0.5, seed)
        expected = P.brute_force_mce(g)
        for order in ("degree", "triangle", "degeneracy"):
            emissions = run_engine("parmce", g, cutoff=4, order=order)
            assert len(emissions) == len(set(emissions)), "duplicate emission"
            assert P.canonical_family(emissions) == expected

    def test_clique_emitted_at_its_rank_minimum_member(self):
        g = P.gen_gnp(14, 0.5, 77)
        rank = P.degeneracy_rank(g)
        per_v = self.per_vertex_emissions(g, rank)
        for clique in P.brute_force_mce(g):
            owner = min(clique, key=rank.key)
            for v in range(g.n):
                if v == owner:
                    assert clique in per_v[v]
                else:
                    assert clique not in per_v[v]

    def test_par_ttt_pool_on_every_vertex_subproblem(self):
        # non-root subproblems through the pool; at one thread par_ttt is ttt
        pool = P.ParallelConfig(threads=2)
        for seed in range(3):
            g = P.gen_gnp(16, 0.5, seed)
            rank = P.degeneracy_rank(g)
            with donation_cutoff(2):
                pooled = self.per_vertex_emissions(g, rank, pool)
            assert pooled == self.per_vertex_emissions(g, rank)

    def test_pool_matches_serial(self):
        for seed in (0, 1):
            g = P.gen_gnp(60, 0.3, seed)
            a = canonical_run("parmce", g, threads=2, cutoff=8)
            b = canonical_run("parmce", g, threads=1, cutoff=8)
            c = canonical_run("ttt", g)
            assert a == b == c

    def test_rank_length_mismatch_rejected(self):
        bad = P.RankAssignment((0, 0))
        with pytest.raises(ValueError):
            P.par_mce(K3, bad, CountingSink())


class TestEmittedCliquesAreMaximal:
    def test_full_recheck_on_medium_graph(self):
        g = P.gen_gnp(200, 0.1, 13)
        sink = CollectSink()
        P.par_mce(g, P.degree_rank(g), sink, P.ParallelConfig(threads=2))
        assert_all_maximal_cliques(g, sink.cliques)
        assert len(sink.cliques) == len(set(sink.cliques))


class TestEmissionsAreAscending:
    """The emissions a sink that overrides only emit() receives are
    ascending tuples, from every engine at every thread count: the kernel
    emits unsorted tuples and the default encode() sorts each one."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("engine", ["ttt", "parttt", "parmce"])
    def test_raw_emissions_are_ascending_tuples(self, engine, threads):
        for seed in range(3):
            cliques = run_engine(engine, P.gen_gnp(40, 0.5, seed), threads=threads, cutoff=4)
            assert cliques
            for c in cliques:
                assert type(c) is tuple and list(c) == sorted(set(c)), c


class TestEncodingSinksGetTheKernelsTuples:
    """A sink that overrides encode() and take() gets each clique as the
    kernel emits it, in the order its vertices joined K: no sort is paid
    for where only a clique's size is read."""

    def test_unsorted_tuples_in_the_reference_stream_order(self):
        class Raw(P.CliqueSink):
            def __init__(self):
                self.cliques = []

            def encode(self, cliques):
                return cliques

            def take(self, payload):
                self.cliques += payload

        g = P.gen_gnp(40, 0.5, 0)
        sink = Raw()
        P.ttt(g, None, sink)
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, [], set(range(g.n)), set(), expected.append)
        assert any(list(c) != sorted(c) for c in sink.cliques)
        assert ascending(sink.cliques) == expected


class TestDonationCutoff:
    """No option sets the donation cutoff: every engine builds its handler
    with the engines' constant, 16, at every thread count, and with the
    value a test patches in, so the tests that patch it run at it."""

    @pytest.mark.parametrize(
        "engine, threads", [("ttt", 1), ("parttt", 1), ("parttt", 2), ("parmce", 1), ("parmce", 2)]
    )
    def test_the_handler_gets_16_or_the_patched_value(self, monkeypatch, engine, threads):
        g = P.gen_gnp(40, 0.5, 1)
        family = canonical_run("ttt", g)
        build = engines._make_task_handler
        cutoffs = []

        def recorded(g, key, cutoff):
            cutoffs.append(cutoff)
            return build(g, key, cutoff)

        monkeypatch.setattr(engines, "_make_task_handler", recorded)
        assert canonical_run(engine, g, threads=threads) == family
        assert canonical_run(engine, g, threads=threads, cutoff=3) == family
        assert cutoffs == [16, 3]


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            P.ParallelConfig(threads=0)

    def test_defaults(self):
        cfg = P.ParallelConfig()
        assert cfg.threads == 1
