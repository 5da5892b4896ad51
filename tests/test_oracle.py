import pytest
from hypothesis import given, settings, strategies as st

import parmce as P

from util import triangle_total_by_triples


class TestBruteForce:
    def test_triangle(self):
        g = P.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert P.brute_force_mce(g) == ((0, 1, 2),)

    def test_five_cycle_gives_its_edges(self):
        g = P.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert P.brute_force_mce(g) == (
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
        )

    def test_edgeless_graph(self):
        g = P.Graph.from_edges(3, [])
        assert P.brute_force_mce(g) == ((0,), (1,), (2,))

    def test_null_graph(self):
        assert P.brute_force_mce(P.Graph.from_edges(0, [])) == ()

    def test_size_guard(self):
        with pytest.raises(ValueError):
            P.brute_force_mce(P.Graph.from_edges(26, []))

    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 9), (3, 27), (4, 81), (5, 243)])
    def test_moon_moser_counts(self, k, expected):
        fam = P.brute_force_mce(P.gen_moon_moser(k))
        assert len(fam) == expected
        assert all(len(c) == k for c in fam)

    @given(st.integers(0, 1000), st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=25)
    def test_family_is_maximality_closed(self, seed, p):
        g = P.gen_gnp(10, p, seed)
        fam = P.brute_force_mce(g)
        assert len(set(fam)) == len(fam)
        for c in fam:
            members = set(c)
            for a in c:
                for b in c:
                    assert a == b or b in g.adj_sets[a]
            for w in range(g.n):
                if w not in members:
                    assert not members <= g.adj_sets[w]
        # no member is a subset of another
        for c in fam:
            for d in fam:
                assert c == d or not set(c) <= set(d)


class TestGenerators:
    def test_moon_moser_shape(self):
        g = P.gen_moon_moser(2)
        assert (g.n, g.m) == (6, 9)
        assert P.gen_moon_moser(0).n == 0
        g1 = P.gen_moon_moser(1)
        assert (g1.n, g1.m) == (3, 0)

    def test_gnp_extremes(self):
        assert P.gen_gnp(10, 0.0, 1).m == 0
        g = P.gen_gnp(10, 1.0, 1)
        assert g.m == 45

    def test_gnp_reproducible(self):
        a = P.gen_gnp(40, 0.3, 123)
        b = P.gen_gnp(40, 0.3, 123)
        assert a == b
        c = P.gen_gnp(40, 0.3, 124)
        assert a != c

    def test_gnp_validation(self):
        with pytest.raises(ValueError):
            P.gen_gnp(10, 1.5, 0)
        with pytest.raises(ValueError):
            P.gen_gnp(-1, 0.5, 0)

    def test_complete(self):
        assert P.gen_complete(1).n == 1
        assert P.gen_complete(4).m == 6
        assert P.brute_force_mce(P.gen_complete(5)) == ((0, 1, 2, 3, 4),)


def test_canonical_family_dedups_and_sorts():
    fam = P.canonical_family([(2, 1), (1, 2), (0,)])
    assert fam == ((0,), (1, 2))


def test_triangle_triple_oracle_agrees_on_known_graph():
    # sanity for the test-side oracle itself
    assert triangle_total_by_triples(P.gen_complete(5)) == 10
    assert triangle_total_by_triples(P.gen_moon_moser(1)) == 0
