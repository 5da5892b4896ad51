import random

import pytest

import parmce as P
from parmce.pivoting import par_pivot, select_pivot

K3 = P.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestSelectPivot:
    def test_complete_tie_breaks_low_id(self):
        assert select_pivot(K3, {0, 1, 2}, set()) == 0

    def test_star_center_wins(self):
        g = P.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert select_pivot(g, {0, 1, 2, 3}, set()) == 0

    def test_pivot_may_come_from_fini(self):
        g = P.Graph.from_edges(6, [(2, 5)])
        assert select_pivot(g, {2}, {5}) == 5

    def test_k10_root(self):
        g = P.gen_complete(10)
        cand = set(range(10))
        assert select_pivot(g, cand, set()) == 0
        assert max(len(cand & g.adj_sets[w]) for w in cand) == 9

    def test_both_empty_is_contract_violation(self):
        with pytest.raises(ValueError):
            select_pivot(K3, set(), set())
        with pytest.raises(ValueError):
            par_pivot(K3, set(), set())


class TestParPivot:
    def test_matches_sequential_on_examples(self):
        cases = [
            (K3, {0, 1, 2}, set()),
            (P.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3}, set()),
            (P.Graph.from_edges(6, [(2, 5)]), {2}, {5}),
        ]
        for g, cand, fini in cases:
            assert par_pivot(g, cand, fini) == select_pivot(g, cand, fini)

    def test_equivalence_on_random_splits(self):
        g = P.gen_gnp(30, 0.3, 99)
        rng = random.Random(7)
        for _ in range(100):
            verts = [v for v in range(g.n) if rng.random() < 0.6]
            if not verts:
                continue
            cand = {v for v in verts if rng.random() < 0.5}
            fini = set(verts) - cand
            assert par_pivot(g, cand, fini) == select_pivot(g, cand, fini)

    def test_pivot_score_is_maximal(self):
        g = P.gen_gnp(25, 0.4, 11)
        rng = random.Random(3)
        for _ in range(50):
            verts = [v for v in range(g.n) if rng.random() < 0.7]
            if not verts:
                continue
            cand = {v for v in verts if rng.random() < 0.6}
            fini = set(verts) - cand
            pivot = select_pivot(g, cand, fini)
            scores = {w: len(cand & g.adj_sets[w]) for w in cand | fini}
            assert all(scores[pivot] >= t for t in scores.values())
            for w, t in scores.items():
                assert 0 <= t <= min(len(cand), len(g.adj_sets[w]))
