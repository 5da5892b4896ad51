import io

import pytest
from hypothesis import given, strategies as st

import parmce as P
from parmce.graph import edge_list_lines

K3 = P.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = P.Graph.from_edges(3, [(0, 1), (1, 2)])


def load_text(text: str) -> P.Graph:
    return P.load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_basic(self):
        g = load_text("0 1\n1 2\n")
        assert (g.n, g.m) == (3, 2)
        assert g.neighbors(1) == (0, 2)

    def test_self_loop_and_reverse_duplicate(self):
        g = load_text("0 0\n0 1\n1 0\n")
        assert (g.n, g.m) == (2, 1)

    def test_comment_and_first_appearance_remap(self):
        g = load_text("# header\n5 7\n")
        assert (g.n, g.m) == (2, 1)
        assert g.labels == (5, 7)

    def test_percent_comments_and_blank_lines(self):
        g = load_text("% konect header\n\n3 4\n")
        assert (g.n, g.m) == (2, 1)

    def test_empty_input_is_empty_graph(self):
        g = load_text("")
        assert (g.n, g.m) == (0, 0)

    def test_bytes_stream(self):
        g = P.load_edge_list(io.BytesIO(b"0 1\n2 1\n"))
        assert (g.n, g.m) == (3, 2)

    @pytest.mark.parametrize(
        "text,line",
        [("0 x\n", 1), ("0 1\n1 2 3\n", 2), ("0 1\nfoo\n", 2), ("-1 2\n", 1)],
    )
    def test_malformed_names_line(self, text, line):
        with pytest.raises(P.EdgeListParseError) as exc:
            load_text(text)
        assert f"line {line}" in str(exc.value)


class TestQueries:
    def test_neighbors_examples(self):
        assert K3.neighbors(0) == (1, 2)
        assert PATH3.neighbors(1) == (0, 2)
        g = P.Graph.from_edges(3, [(0, 1)])
        assert g.neighbors(2) == ()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            K3.neighbors(3)
        with pytest.raises(IndexError):
            K3.degree(-1)


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120
)


@given(edge_lists)
def test_invariants_from_random_edges(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_text(text)
    assert sum(len(s) for s in g.adj_sets) == 2 * g.m
    for v in range(g.n):
        assert v not in g.adj_sets[v]
        assert list(g.adj_lists[v]) == sorted(set(g.adj_lists[v]))
        for w in g.adj_lists[v]:
            # membership structure and sorted list agree both ways
            assert w in g.adj_sets[v]
            assert v in g.adj_sets[w]


@given(edge_lists)
def test_round_trip_recovers_graph_via_id_map(pairs):
    g = load_text("".join(f"{a} {b}\n" for a, b in pairs))
    if any(g.degree(v) == 0 for v in range(g.n)):
        # the edge-list format cannot express isolated vertices
        return
    buf = io.StringIO()
    P.write_edge_list(g, buf)
    g2 = load_text(buf.getvalue())
    assert (g2.n, g2.m) == (g.n, g.m)
    # the reload's labels map serialized ids back onto its dense ids;
    # through them the adjacency must be identical
    id_map = {lab: v for v, lab in enumerate(g2.labels)}
    mapped = {tuple(sorted((id_map[u], id_map[v]))) for u, v in g.edges()}
    assert mapped == set(g2.edges())


def test_round_trip_identity_on_completes():
    g = P.gen_complete(6)
    buf = io.StringIO()
    P.write_edge_list(g, buf)
    g2 = load_text(buf.getvalue())
    assert g2 == g


def test_canonical_writer_order():
    g = P.Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
    assert edge_list_lines(g) == ["0 1", "0 3", "2 3"]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        P.Graph.from_edges(2, [(0, 2)])
