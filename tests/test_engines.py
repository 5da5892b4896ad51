import pytest
from hypothesis import assume, given, settings, strategies as st

import parmce as P
import parmce.engines as engines
from parmce.engines import _branch_tasks, _make_task_handler, _vertex_child

from util import (
    CollectSink,
    assert_all_maximal_cliques,
    canonical_run,
    incremental_children,
    reference_ttt,
    run_engine,
    walk_lockstep,
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

    def test_unsatisfiable_subproblem_emits_nothing(self):
        g = P.Graph.from_edges(2, [(0, 1)])
        sp = P.Subproblem(frozenset({0}), frozenset(), frozenset({1}))
        for engine in (P.ttt, P.par_ttt):
            sink = CollectSink()
            engine(g, sp, sink)
            assert sink.cliques == []

    def test_explicit_subproblem_scopes_search(self):
        # only cliques containing K and avoiding fini
        sink = CollectSink()
        P.ttt(K3, P.Subproblem(frozenset({0}), frozenset({1, 2}), frozenset()), sink)
        assert sink.cliques == [(0, 1, 2)]

    def test_invalid_subproblem_rejected(self):
        with pytest.raises(ValueError):
            P.Subproblem(frozenset({0}), frozenset({0}), frozenset()).validate(K3)
        with pytest.raises(ValueError):
            # K not a clique
            P.Subproblem(frozenset({0, 2}), frozenset(), frozenset()).validate(PATH3)
        with pytest.raises(ValueError):
            # fini vertex not adjacent to K
            P.Subproblem(frozenset({0}), frozenset(), frozenset({2})).validate(PATH3)


class TestParTTT:
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
        P.par_ttt(g, None, sink, P.ParallelConfig(threads=2, cutoff=4))
        assert P.canonical_family(sink.cliques) == canonical_run("ttt", g)

    def test_empty_cand_on_the_pool_is_a_leaf(self):
        # K is emitted when fini is empty too, and nothing otherwise
        g = P.Graph.from_edges(3, [(0, 1)])
        for sp, expected in [
            (P.Subproblem(frozenset({2}), frozenset(), frozenset()), [(2,)]),
            (P.Subproblem(frozenset({0, 1}), frozenset(), frozenset()), [(0, 1)]),
            (P.Subproblem(frozenset({0}), frozenset(), frozenset({1})), []),
        ]:
            sink = CollectSink()
            P.par_ttt(g, sp, sink, P.ParallelConfig(threads=2, cutoff=2))
            assert sink.cliques == expected


class TestLoopUnrolling:
    def test_lockstep_on_small_graphs(self):
        for seed in range(8):
            g = P.gen_gnp(14, 0.5, seed)
            walk_lockstep(g, validate=True)

    def test_children_cover_branch_set(self):
        g = P.gen_gnp(12, 0.5, 3)
        cand = set(range(g.n))
        children = P.unrolled_children(g, (), cand, set())
        pivot = P.select_pivot(g, cand, set())
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
        unrolled = P.unrolled_children(g, K, cand, fini)
        assert (cand, fini) == args, "arguments must not be mutated"
        assert unrolled == incremental_children(g, K, cand, fini)
        for _, cq, fq in unrolled:
            assert type(cq) is set and type(fq) is set


def random_subproblem(g: P.Graph, roles: list[str]) -> P.Subproblem:
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
    return P.Subproblem(frozenset(K), cand, fini)



class TestVertexTasks:
    """par_ttt's root children are vertex tasks: a worker builds branch
    vertex q's child with _vertex_child, and it must be exactly
    unrolled_children's child for q."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.3, 0.6, 0.9]),
        st.lists(st.sampled_from(["K", "cand", "fini", "out"]), min_size=1, max_size=14),
    )
    @settings(max_examples=150)
    def test_vertex_children_are_unrolled_children(self, seed, p, roles):
        g = P.gen_gnp(len(roles), p, seed)
        sp = random_subproblem(g, roles)
        assume(sp.cand)
        K = tuple(sorted(sp.K))
        ext, base, key = _branch_tasks(g, K, sp.cand, sp.fini)
        built = [_vertex_child(g.adj_sets, base, key, q) for q in ext]
        assert built == P.unrolled_children(g, K, set(sp.cand), set(sp.fini))
        for _, cq, fq in built:
            assert type(cq) is set and type(fq) is set

    def test_root_children_are_unrolled_children(self):
        for seed in range(3):
            g = P.gen_gnp(40, 0.5, seed)
            ext, base, key = _branch_tasks(g, (), frozenset(range(g.n)), frozenset())
            built = [_vertex_child(g.adj_sets, base, key, q) for q in ext]
            assert built == P.unrolled_children(g, (), set(range(g.n)), set())


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
                P.ttt(g, P.subproblem_for_vertex(g, rank, v), expected)
            got = CollectSink()
            P.par_mce(g, rank, got, P.ParallelConfig(threads=1, cutoff=cutoff))
            assert got.cliques == expected.cliques


def stream_and_nodes(search, g: P.Graph, sp: P.Subproblem):
    """Raw emissions of one search, and its count of nodes with >= 3
    candidates, taken by a split hook at cutoff 3 that counts and declines."""
    out: list[tuple[int, ...]] = []
    nodes = [0]

    def count(K, cand, fini, F=None) -> bool:
        nodes[0] += 1
        return False

    search(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), out.append, count, 3)
    return out, nodes[0]


class TestBitKernel:
    """The bit-mask kernel against the set kernel it replaced
    (`util.reference_ttt`): the same raw emission stream, order included,
    and the same search tree, node for node."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        st.lists(
            st.sampled_from(["K", "cand", "cand", "cand", "fini", "out"]), min_size=1, max_size=24
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_stream_and_nodes_as_the_set_kernel(self, seed, p, roles):
        g = P.gen_gnp(len(roles), p, seed)
        sp = random_subproblem(g, roles)
        assume(not sp.is_empty())
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, sorted(sp.K), set(sp.cand), set(sp.fini), expected.append)
        got = CollectSink()
        P.ttt(g, sp, got)
        assert got.cliques == expected
        assert stream_and_nodes(engines._search, g, sp) == stream_and_nodes(reference_ttt, g, sp)

    @pytest.mark.parametrize("n, p", [(60, 0.5), (120, 0.3), (40, 0.8)])
    def test_same_stream_and_nodes_on_whole_graphs(self, n, p):
        for seed in range(2):
            g = P.gen_gnp(n, p, seed)
            got, nodes = stream_and_nodes(engines._search, g, P.root_subproblem(g))
            assert (got, nodes) == stream_and_nodes(reference_ttt, g, P.root_subproblem(g))
            assert nodes > 100
            assert got == run_engine("ttt", g)

    def test_moon_moser_stream(self):
        g = P.gen_moon_moser(6)
        expected: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, [], set(range(g.n)), set(), expected.append)
        assert run_engine("ttt", g) == expected
        assert len(expected) == 3**6


class TestFrameWidth:
    """Every frame lies inside one neighbourhood, so none holds more than
    Δ(g) vertices; the whole graph's root is never framed."""

    G = P.gen_gnp(80, 0.4, 5)

    def gated(self, monkeypatch, bound):
        widths: list[int] = []
        frame = engines._frame

        def checked(adj, cand, fini):
            F, rows, cmask, fmask = frame(adj, cand, fini)
            assert len(F) <= bound, f"frame of {len(F)} vertices, bound {bound}"
            widths.append(len(F))
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

    def test_vertex_subproblems_are_framed_within_max_degree(self, monkeypatch):
        # a subproblem with K = {v} is framed whole, inside Γ(v)
        delta = max(map(len, self.G.adj_sets))
        widths = self.gated(monkeypatch, delta)
        rank = P.compute_rank(self.G, "degree")
        got = CollectSink()
        for v in range(self.G.n):
            P.ttt(self.G, P.subproblem_for_vertex(self.G, rank, v), got)
        assert P.canonical_family(got.cliques) == canonical_run("ttt", self.G)
        assert widths

    def test_the_gate_reaches_pool_workers(self, monkeypatch):
        self.gated(monkeypatch, 1)
        for engine in ("parttt", "parmce"):
            with pytest.raises(RuntimeError, match="frame of"):
                run_engine(engine, self.G, threads=2, cutoff=4)


class TestSplitPolicy:
    """The pool handler donates a node only when the queue is hungry."""

    G = P.gen_gnp(40, 0.5, 3)

    def handle_root(self, cutoff, hungry):
        spawned, emitted = [], []
        # the root as a donated triple; no vertex task reaches the handler
        handle = _make_task_handler(self.G, ((), None, set()), range(self.G.n), cutoff)
        root = ((), set(range(self.G.n)), set())
        handle(root, emitted.append, spawned.append, lambda: hungry)
        return spawned, emitted

    def test_not_hungry_searches_in_place(self):
        spawned, emitted = self.handle_root(cutoff=4, hungry=False)
        assert spawned == []
        assert P.canonical_family(emitted) == canonical_run("ttt", self.G)

    def test_hungry_donates_the_root_unrolled(self):
        spawned, emitted = self.handle_root(cutoff=4, hungry=True)
        root_children = P.unrolled_children(self.G, (), set(range(self.G.n)), set())
        assert spawned == [root_children]
        assert emitted == []

    def test_a_node_inside_the_kernel_is_donated_as_id_sets(self):
        # hungry at the second ask only: the task itself is searched, and
        # the first node inside its frame with >= cutoff candidates is taken
        asks = iter([False, True])
        spawned, emitted = [], []
        handle = _make_task_handler(self.G, ((), None, set()), range(self.G.n), 4)
        handle(((), set(range(self.G.n)), set()), emitted.append, spawned.append,
               lambda: next(asks, False))
        # the set kernel, declining the same nodes and taking the same one
        taken, expected = [], []
        calls = iter([False, True])

        def split(K, cand, fini):
            if next(calls, False):
                taken.append((tuple(K), set(cand), set(fini)))
                return True
            return False

        reference_ttt(self.G.adj_sets, [], set(range(self.G.n)), set(), expected.append, split, 4)
        assert len(taken) == 1 and len(taken[0][0]) > 0
        assert spawned == [P.unrolled_children(self.G, *taken[0])]
        assert emitted == expected

    def test_cutoff_above_n_never_donates(self):
        spawned, emitted = self.handle_root(cutoff=self.G.n + 1, hungry=True)
        assert spawned == []
        assert P.canonical_family(emitted) == canonical_run("ttt", self.G)


class TestSubproblemForVertex:
    def test_star_center_gets_everything_finished(self):
        g = P.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        rank = P.degree_rank(g)
        sp = P.subproblem_for_vertex(g, rank, 0)
        assert (sp.K, sp.cand, sp.fini) == ({0}, frozenset(), {1, 2, 3})
        sp1 = P.subproblem_for_vertex(g, rank, 1)
        assert (sp1.K, sp1.cand, sp1.fini) == ({1}, {0}, frozenset())

    def test_isolated_vertex(self):
        g = P.Graph.from_edges(3, [(0, 1)])
        sp = P.subproblem_for_vertex(g, P.degree_rank(g), 2)
        assert (sp.K, sp.cand, sp.fini) == ({2}, frozenset(), frozenset())

    def test_satisfies_invariants(self):
        g = P.gen_gnp(20, 0.4, 9)
        rank = P.triangle_counts(g)
        for v in range(g.n):
            P.subproblem_for_vertex(g, rank, v).validate(g)


class TestParMCE:
    def per_vertex_emissions(self, g, rank, config=P.ParallelConfig()):
        out = {}
        for v in range(g.n):
            sink = CollectSink()
            P.par_ttt(g, P.subproblem_for_vertex(g, rank, v), sink, config)
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
        pool = P.ParallelConfig(threads=2, cutoff=2)
        for seed in range(3):
            g = P.gen_gnp(16, 0.5, seed)
            rank = P.degeneracy_rank(g)
            assert self.per_vertex_emissions(g, rank, pool) == self.per_vertex_emissions(g, rank)

    def test_pool_matches_serial(self):
        for seed in (0, 1):
            g = P.gen_gnp(60, 0.3, seed)
            a = canonical_run("parmce", g, threads=2, cutoff=8)
            b = canonical_run("parmce", g, threads=1, cutoff=8)
            c = canonical_run("ttt", g)
            assert a == b == c

    def test_rank_length_mismatch_rejected(self):
        bad = P.RankAssignment("degree", (0, 0))
        with pytest.raises(ValueError):
            P.par_mce(K3, bad, P.CountingSink())


class TestEmittedCliquesAreMaximal:
    def test_full_recheck_on_medium_graph(self):
        g = P.gen_gnp(200, 0.1, 13)
        sink = CollectSink()
        P.par_mce(g, P.degree_rank(g), sink, P.ParallelConfig(threads=2))
        assert_all_maximal_cliques(g, sink.cliques)
        assert len(sink.cliques) == len(set(sink.cliques))


class TestEmissionsAreAscending:
    """Sinks rely on every emitted clique being an ascending tuple."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("engine", ["ttt", "parttt", "parmce"])
    def test_raw_emissions_are_ascending_tuples(self, engine, threads):
        for seed in range(3):
            cliques = run_engine(engine, P.gen_gnp(40, 0.5, seed), threads=threads, cutoff=4)
            assert cliques
            for c in cliques:
                assert type(c) is tuple and list(c) == sorted(set(c)), c


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            P.ParallelConfig(threads=0)
        with pytest.raises(ValueError):
            P.ParallelConfig(cutoff=0)

    def test_defaults(self):
        cfg = P.ParallelConfig()
        assert cfg.threads == 1
        assert cfg.cutoff == 16
