import io
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

import parmce as P

from util import reference_load_edge_list

K3 = P.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = P.Graph.from_edges(3, [(0, 1), (1, 2)])


def load_text(text: str) -> P.Graph:
    return P.load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_basic(self):
        g = load_text("0 1\n1 2\n")
        assert (g.n, g.m) == (3, 2)
        assert g.adj_sets[1] == {0, 2}

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

    def test_self_loop_only_label_keeps_its_id(self):
        g = load_text("7 7\n1 2\n")
        assert (g.n, g.m) == (3, 1)
        assert g.labels == (7, 1, 2)
        assert g.adj_sets == (frozenset(), frozenset({2}), frozenset({1}))

    @pytest.mark.parametrize(
        "text,line",
        [("0 x\n", 1), ("0 1\n1 2 3\n", 2), ("0 1\nfoo\n", 2), ("-1 2\n", 1),
         # int() reads "1_0" as 10, and the Arabic-Indic digit "١" as 1
         ("1_0 5\n10 6\n", 1), ("١ 2\n", 1),
         # and "+5" as 5 (so "5 +5" is a self-loop) and "-0" as 0
         ("+5 6\n", 1), ("5 +5\n", 1), ("-0 1\n", 1)],
    )
    def test_malformed_names_line(self, text, line):
        with pytest.raises(P.EdgeListParseError) as exc:
            load_text(text)
        assert f"line {line}" in str(exc.value)


class TestQueries:
    def test_neighbors_examples(self):
        assert K3.adj_sets[0] == {1, 2}
        assert PATH3.adj_sets == ({1}, {0, 2}, {1})
        g = P.Graph.from_edges(3, [(0, 1)])
        assert g.adj_sets[2] == frozenset()

    def test_edges_ascending_on_unsorted_construction(self):
        g = P.Graph.from_edges(6, [(5, 0), (3, 1), (4, 0), (2, 5), (1, 0), (3, 2)])
        assert list(g.edges()) == [(0, 1), (0, 4), (0, 5), (1, 3), (2, 3), (2, 5)]
        g = load_text("9 3\n3 1\n1 9\n9 4\n")
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_one_edge_apart_is_unequal(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        assert P.Graph.from_edges(4, edges) == P.Graph.from_edges(4, list(reversed(edges)))
        assert P.Graph.from_edges(4, edges) != P.Graph.from_edges(4, edges[:2] + [(1, 3)])
        assert P.Graph.from_edges(4, edges) != P.Graph.from_edges(4, edges + [(0, 3)])


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
        for w in g.adj_sets[v]:
            assert v in g.adj_sets[w]
    # through the labels, the edges are the input's, loops dropped
    named = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
    assert named == {frozenset(p) for p in pairs if p[0] != p[1]}


@given(edge_lists)
def test_round_trip_recovers_graph_via_id_map(pairs):
    g = load_text("".join(f"{a} {b}\n" for a, b in pairs))
    if not all(g.adj_sets):
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
    buf = io.StringIO()
    P.write_edge_list(g, buf)
    assert buf.getvalue() == "0 1\n0 3\n2 3\n"


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        P.Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize(
    "g",
    [P.gen_gnp(300, 0.1, 5), P.gen_moon_moser(4), P.gen_complete(7), P.Graph([])],
    ids=["gnp", "moonmoser", "complete", "empty"],
)
def test_write_edge_list_matches_edge_list_lines(g):
    # the lines built here from the neighbour sets, not from g.edges()
    buf = io.StringIO()
    P.write_edge_list(g, buf)
    assert buf.getvalue() == "".join(
        f"{u} {v}\n" for u in range(g.n) for v in sorted(g.adj_sets[u]) if u < v
    )


# -- how the build lays out and sizes the frozensets -----------------------


def messy_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m random pairs over 0..n-1 (in no order), then about m/8 repeats,
    some reversed, and n/10 self-loops, interleaved."""
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    repeats = [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(edges, m // 8)]
    loops = [(v, v) for v in rng.sample(range(n), n // 10)]
    edges += repeats + loops
    rng.shuffle(edges)
    return edges


def as_bytes(edges) -> io.BytesIO:
    return io.BytesIO("".join(f"{a} {b}\n" for a, b in edges).encode())


def test_frozensets_keep_the_set_add_layout():
    """Each neighborhood is the frozenset of a set filled by `set.add` in
    edge order, table layout included, whichever way the graph was built:
    the search trees and listings follow its iteration order."""
    edges = messy_edges(2000, 12_000, seed=3)
    g = P.load_edge_list(as_bytes(edges))
    ids = {lab: v for v, lab in enumerate(g.labels)}
    sets: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in edges:
        u, v = ids[a], ids[b]
        if u != v:
            sets[u].add(v)
            sets[v].add(u)
    dense = [(ids[a], ids[b]) for a, b in edges]
    for built in (g, P.Graph.from_edges(g.n, dense, list(g.labels))):
        for v in range(g.n):
            assert list(built.adj_sets[v]) == list(frozenset(sets[v]))


def traced_build(build) -> tuple[P.Graph, int, int]:
    """Run build() under tracemalloc; return the graph, the bytes it holds
    and the build's peak."""
    tracemalloc.start()
    try:
        g = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, held, peak


def test_build_peaks_near_the_graphs_own_size():
    """Neighborhoods are frozen one vertex at a time, so a build never
    holds a second full copy of the adjacency, which would double its peak."""
    edges = messy_edges(5000, 40_000, seed=11)
    data = as_bytes(edges)
    n = 1 + max(max(e) for e in edges)
    builds = {
        "load_edge_list": lambda: P.load_edge_list(data),
        "from_edges": lambda: P.Graph.from_edges(n, edges),
    }
    graphs = []
    for name, build in builds.items():
        g, held, peak = traced_build(build)
        assert g.n >= 4900 and g.m > 35_000
        assert peak <= 1.25 * held, f"{name}: peak {peak} B for a {held} B graph"
        graphs.append(g)
    assert graphs[0].m == graphs[1].m


@pytest.mark.parametrize(
    "build",
    [lambda: P.gen_gnp(800, 0.2, 42), lambda: P.gen_moon_moser(60), lambda: P.gen_complete(500)],
    ids=["gnp", "moon_moser", "complete"],
)
def test_generators_peak_near_the_graphs_own_size(build):
    """The generators stream their pairs into the build instead of listing
    every edge first, which would add a tuple per edge to the peak."""
    g, held, peak = traced_build(build)
    assert g.m > 10_000
    assert peak <= 1.25 * held, f"peak {peak} B for a {held} B graph"


# -- differential fuzz of the loader against the reference -----------------

_LABEL = st.one_of(st.integers(0, 20), st.integers(10**30, 10**30 + 2)).map(str)
_TOKEN = st.one_of(
    _LABEL,
    _LABEL,
    _LABEL.map("-".__add__),
    _LABEL.map("+".__add__),
    st.sampled_from(["-", "+", "#", "%", "#7", "%x"]),
)
_SPACE = st.sampled_from(["", " ", "\t", " \t"])
_SEP = st.sampled_from([" ", "\t", "  ", "\t "])
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])
_RARELY = st.sampled_from([False] * 9 + [True])
_SELDOM = st.sampled_from([False] * 24 + [True])
_MOSTLY = st.sampled_from([True] * 5 + [False])


@st.composite
def edge_list_bytes(draw) -> bytes:
    """Edge-list-like bytes: mostly two-label lines, plus blank, comment,
    one- and three-token lines, signed and huge labels, CRLF endings,
    invalid UTF-8 and, sometimes, a leading BOM."""
    out = [b"\xef\xbb\xbf"] if draw(_RARELY) else []
    for _ in range(draw(st.integers(0, 16))):
        if draw(_MOSTLY):
            tokens = [draw(_LABEL), draw(_LABEL)]
        else:
            tokens = draw(st.lists(_TOKEN, max_size=3))
        line = (draw(_SPACE) + draw(_SEP).join(tokens) + draw(_SPACE)).encode()
        if draw(_SELDOM):
            i = draw(st.integers(0, len(line)))
            line = line[:i] + draw(_BAD_UTF8) + line[i:]
        out.append(line + draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"])))
    return b"".join(out)


def load_outcome(load, stream):
    try:
        g = load(stream)
    except P.EdgeListParseError as exc:
        return ("error", exc.line_no, str(exc))
    return ("graph", g.n, g.m, g.labels, g.adj_sets)


@given(edge_list_bytes())
@example(b"\xef\xbb\xbf0 1\n")
def test_loader_matches_reference(data):
    text = data.decode("utf-8", "replace")
    for make in (
        lambda: io.BytesIO(data),
        lambda: io.StringIO(text),
        lambda: data.splitlines(keepends=True),
    ):
        got = load_outcome(P.load_edge_list, make())
        assert got == load_outcome(reference_load_edge_list, make())
        if data.startswith(b"\xef\xbb\xbf"):
            assert got[:2] == ("error", 1)
