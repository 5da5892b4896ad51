import pytest
from hypothesis import example, given, settings, strategies as st

import parmce as P
from parmce.ranking import ORDERINGS, RankAssignment

from util import peel_core_numbers, triangle_total_by_triples

PATH3 = P.Graph.from_edges(3, [(0, 1), (1, 2)])


def order_of(rank: P.RankAssignment) -> list[int]:
    return sorted(range(len(rank.values)), key=rank.key)


class TestDegreeRank:
    def test_path(self):
        r = P.degree_rank(PATH3)
        assert r.values == (1, 2, 1)
        assert order_of(r) == [0, 2, 1]

    def test_complete_ties_break_by_id(self):
        r = P.degree_rank(P.gen_complete(4))
        assert r.values == (3, 3, 3, 3)
        assert order_of(r) == [0, 1, 2, 3]

    def test_star(self):
        g = P.Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        r = P.degree_rank(g)
        assert r.values == (4, 1, 1, 1, 1)
        assert order_of(r) == [1, 2, 3, 4, 0]


class TestTriangleCounts:
    def test_complete4(self):
        assert P.triangle_counts(P.gen_complete(4)).values == (3, 3, 3, 3)

    def test_four_cycle(self):
        g = P.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert P.triangle_counts(g).values == (0, 0, 0, 0)

    def test_k4_minus_edge(self):
        g = P.Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert P.triangle_counts(g).values == (1, 1, 2, 2)

    @given(st.integers(0, 10_000), st.integers(5, 50), st.sampled_from([0.1, 0.3, 0.6]))
    @settings(max_examples=20)
    def test_sum_is_three_times_triangle_total(self, seed, n, p):
        g = P.gen_gnp(n, p, seed)
        assert sum(P.triangle_counts(g).values) == 3 * triangle_total_by_triples(g)


class TestDegeneracyRank:
    def test_path_is_one_degenerate(self):
        g = P.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert P.degeneracy_rank(g).values == (1, 1, 1, 1)

    def test_complete(self):
        assert P.degeneracy_rank(P.gen_complete(4)).values == (3, 3, 3, 3)

    def test_k4_plus_pendant(self):
        g = P.Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        )
        assert P.degeneracy_rank(g).values == (3, 3, 3, 3, 1)

    def test_random_trees_are_one_degenerate(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(2, 40)
            edges = [(rng.randrange(0, i), i) for i in range(1, n)]
            g = P.Graph.from_edges(n, edges)
            assert set(P.degeneracy_rank(g).values) == {1}

    def test_empty_graph(self):
        assert P.degeneracy_rank(P.Graph.from_edges(0, [])).values == ()

    @given(
        st.integers(0, 10_000),
        st.integers(1, 400),
        st.sampled_from([0.01, 0.02, 0.05, 0.2, 0.5, 0.9]),
    )
    @settings(max_examples=40, deadline=None)
    # sparse and large: isolated vertices, and vertices that fall several
    # degrees before they are peeled, leaving stale entries in higher lists
    @example(5, 400, 0.01)
    @example(1, 300, 0.05)
    def test_matches_independent_peeling(self, seed, n, p):
        g = P.gen_gnp(n, p, seed)
        assert P.degeneracy_rank(g).values == peel_core_numbers(g)

    def test_monotone_under_edge_addition(self):
        g = P.gen_gnp(20, 0.2, 3)
        before = P.degeneracy_rank(g).values
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if v not in g.adj_sets[u]
        ]
        u, v = non_edges[0]
        g2 = P.Graph.from_edges(g.n, list(g.edges()) + [(u, v)])
        after = P.degeneracy_rank(g2).values
        assert all(a >= b for a, b in zip(after, before))


class TestRankKey:
    def test_examples(self):
        r = RankAssignment((1, 2, 1))
        assert r.key(0) < r.key(2)
        assert not r.key(1) < r.key(0)
        r2 = RankAssignment((5, 3))
        assert r2.key(1) < r2.key(0)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=30))
    def test_strict_total_order(self, values):
        r = RankAssignment(tuple(values))
        n = len(values)
        for u in range(n):
            assert not r.key(u) < r.key(u)
            for v in range(n):
                if u != v:
                    assert (r.key(u) < r.key(v)) != (r.key(v) < r.key(u))
        # transitivity on the derived sorted order
        order = order_of(r)
        for i in range(n - 1):
            assert r.key(order[i]) < r.key(order[i + 1])


def test_compute_rank_dispatch():
    import parmce.cli

    assert ORDERINGS == parmce.cli.ORDERINGS == ("degree", "triangle", "degeneracy")
    # a triangle with a pendant vertex: the three metrics all differ
    g = P.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    want = {"degree": (3, 2, 2, 1), "triangle": (1, 1, 1, 0), "degeneracy": (2, 2, 2, 1)}
    assert {name: P.compute_rank(g, name).values for name in ORDERINGS} == want
    with pytest.raises(ValueError, match="nope"):
        P.compute_rank(g, "nope")
