import pytest
from hypothesis import assume, given, settings, strategies as st

import parmce as P

from util import (
    CollectSink,
    assert_all_maximal_cliques,
    canonical_run,
    incremental_children,
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
    def per_vertex_emissions(self, g, rank):
        out = {}
        for v in range(g.n):
            sink = CollectSink()
            P.par_ttt(g, P.subproblem_for_vertex(g, rank, v), sink)
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

    def test_pool_matches_serial(self):
        for seed in (0, 1):
            g = P.gen_gnp(60, 0.3, seed)
            a = canonical_run("parmce", g, threads=2, cutoff=8)
            b = canonical_run("parmce", g, threads=1, cutoff=8)
            c = canonical_run("ttt", g)
            assert a == b == c

    def test_rank_length_mismatch_rejected(self):
        bad = P.RankAssignment(P.RankStrategy.DEGREE, (0, 0))
        with pytest.raises(ValueError):
            P.par_mce(K3, bad, P.CountingSink())


class TestEmittedCliquesAreMaximal:
    def test_full_recheck_on_medium_graph(self):
        g = P.gen_gnp(200, 0.1, 13)
        sink = CollectSink()
        P.par_mce(g, P.degree_rank(g), sink, P.ParallelConfig(threads=2))
        assert_all_maximal_cliques(g, sink.cliques)
        assert len(sink.cliques) == len(set(sink.cliques))


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
