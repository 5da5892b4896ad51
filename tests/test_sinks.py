import io
import json
from collections import Counter

import pytest

import parmce as P
from parmce.sinks import CompositeSink, CountingSink

from util import CollectSink, donation_cutoff, reference_ttt, run_engine


class TestCountingSink:
    def test_counts_emissions(self):
        s = CountingSink()
        s.emit((0, 1))
        s.emit((1, 2))
        assert s.count == 2

    def test_zero_without_emissions(self):
        assert CountingSink().count == 0

    def test_moon_moser_full_run(self):
        s = CountingSink()
        P.ttt(P.gen_moon_moser(3), None, s)
        assert s.count == 27

    def test_absorb(self):
        # a pool worker sends a HistogramSink each chunk's size counts
        s = CountingSink()
        s.take(Counter({2: 3, 3: 2}))
        s.take(Counter({2: 2}))
        assert s.count == 7
        s.take(Counter())
        assert s.count == 7
        assert s.encode([(0, 1), (1, 2, 3)]) == Counter({2: 1, 3: 1})


def report_sizes(s: P.HistogramSink) -> tuple[int, float]:
    """The report's max and average clique size, computed from s.histogram."""
    rep = P.EnumerationReport.from_histogram(s, rt=0.0, et=0.0, tt=0.0)
    return rep.max_clique_size, rep.avg_clique_size


class TestHistogramSink:
    def test_two_edges(self):
        s = P.HistogramSink()
        s.emit((0, 1))
        s.emit((1, 2))
        assert dict(s.histogram) == {2: 2}
        assert report_sizes(s) == (2, 2.0)

    def test_k5(self):
        s = P.HistogramSink()
        P.ttt(P.gen_complete(5), None, s)
        assert dict(s.histogram) == {5: 1}

    def test_path5(self):
        g = P.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        s = P.HistogramSink()
        P.ttt(g, None, s)
        assert dict(s.histogram) == {2: 4}

    def test_fractional_average(self):
        s = P.HistogramSink()
        s.take(Counter({2: 1, 3: 1}))
        assert s.count == 2
        assert report_sizes(s) == (3, 2.5)

    def test_empty(self):
        s = P.HistogramSink()
        assert s.count == 0
        assert report_sizes(s) == (0, 0.0)


class TestWriterSink:
    def test_writes_ascending(self):
        out = io.StringIO()
        s = P.WriterSink(out)
        s.emit((0, 1, 2))
        s.finalize()
        assert out.getvalue() == "0 1 2\n"

    def test_canonical_mode_on_path(self):
        g = P.Graph.from_edges(3, [(0, 1), (1, 2)])
        out = io.StringIO()
        s = P.WriterSink(out, canonical=True)
        P.ttt(g, None, s)
        s.finalize()
        assert out.getvalue() == "0 1\n1 2\n"

    def test_original_labels(self):
        out = io.StringIO()
        s = P.WriterSink(out, labels=(5, 7))
        s.emit((0, 1))
        s.finalize()
        assert out.getvalue() == "5 7\n"

    @pytest.mark.parametrize("original_labels", [False, True])
    @pytest.mark.parametrize("canonical", [False, True])
    def test_encoded_chunks_write_what_emit_writes(self, original_labels, canonical):
        # the kernel emits a clique in the order its vertices joined K
        cliques = [(3, 2), (2, 0, 1), (4, 1)]
        labels = (50, 7, 9, 11, 400) if original_labels else range(5)
        kw = dict(canonical=canonical, labels=labels)
        by_emit, by_chunk = io.StringIO(), io.StringIO()
        emitted = P.WriterSink(by_emit, **kw)
        for c in cliques:
            emitted.emit(c)
        # encode runs in a pool worker, take in the driver
        taken = P.WriterSink(by_chunk, **kw)
        taken.take(P.WriterSink(io.StringIO(), **kw).encode(cliques[:2]))
        taken.take(P.WriterSink(io.StringIO(), **kw).encode(cliques[2:]))
        for s in (emitted, taken):
            s.finalize()
            assert (s.count, dict(s.histogram)) == (3, {2: 2, 3: 1})
        assert by_chunk.getvalue() == by_emit.getvalue()
        # each line: the dense ids ascending, then named; canonical order
        # follows the ascending dense-id tuples, not the labels
        lines = {(3, 2): "9 11", (2, 0, 1): "50 7 9", (4, 1): "7 400"}
        if not original_labels:
            lines = {c: " ".join(map(str, sorted(c))) for c in lines}
        order = sorted(cliques, key=sorted) if canonical else cliques
        assert by_emit.getvalue() == "".join(lines[c] + "\n" for c in order)

    def test_first_failing_write_raises_from_emit(self):
        class FullAfterTwo(io.StringIO):
            def write(self, s):
                if self.tell() >= 8:
                    raise OSError("disk full")
                return super().write(s)

        out = FullAfterTwo()
        s = P.WriterSink(out)
        s.emit((0, 1))
        s.emit((2, 3))
        with pytest.raises(OSError, match="disk full"):
            s.emit((4, 5))  # the enumeration stops here, not at finalize
        assert out.getvalue() == "0 1\n2 3\n"

    def test_canonical_output_invariant_across_engines_and_threads(self):
        g = P.gen_gnp(40, 0.3, 17)
        outputs = set()
        for engine, threads in [
            ("ttt", 1), ("parttt", 1), ("parttt", 2),
            ("parmce", 1), ("parmce", 2),
        ]:
            out = io.StringIO()
            sink = P.WriterSink(out, canonical=True)
            cfg = P.ParallelConfig(threads=threads)
            with donation_cutoff(8):
                if engine == "ttt":
                    P.ttt(g, None, sink)
                elif engine == "parttt":
                    P.par_ttt(g, None, sink, cfg)
                else:
                    P.par_mce(g, P.degree_rank(g), sink, cfg)
            sink.finalize()
            outputs.add(out.getvalue())
        assert len(outputs) == 1


class TestCompositeSink:
    def test_one_pass_count_and_histogram(self):
        count = CountingSink()
        hist = P.HistogramSink()
        out = io.StringIO()
        combo = CompositeSink([count, hist, P.WriterSink(out)])
        P.ttt(P.gen_moon_moser(2), None, combo)
        combo.finalize()
        assert count.count == 9
        assert dict(hist.histogram) == {2: 9}
        assert len(out.getvalue().splitlines()) == 9

    def test_pool_run_matches_sequential_count(self):
        g = P.gen_gnp(60, 0.3, 4)
        seq = CountingSink()
        P.ttt(g, None, seq)
        par = CompositeSink([CountingSink(), P.HistogramSink()])
        with donation_cutoff(8):
            P.par_mce(g, P.degree_rank(g), par, P.ParallelConfig(threads=2))
        assert par.sinks[0].count == seq.count
        assert sum(par.sinks[1].histogram.values()) == seq.count


class TestOneResultRoute:
    """At one thread too, cliques reach a sink only as encode() then take()."""

    def test_a_sink_that_only_encodes_and_takes_gets_the_count_from_every_engine(self):
        class SizesOnly(P.CliqueSink):
            def __init__(self):
                self.histogram = Counter()

            def emit(self, clique):
                raise AssertionError("emit is not a result route")

            def encode(self, cliques):
                return Counter(map(len, cliques))

            def take(self, payload):
                self.histogram.update(payload)

        g = P.gen_gnp(60, 0.3, 1)
        expected = Counter(map(len, run_engine("ttt", g)))
        assert sum(expected.values()) == 442
        cfg = P.ParallelConfig(threads=1)
        for run in (
            lambda sink: P.ttt(g, None, sink),
            lambda sink: P.par_ttt(g, None, sink, cfg),
            lambda sink: P.par_mce(g, P.degree_rank(g), sink, cfg),
        ):
            sink = SizesOnly()
            run(sink)
            assert sink.histogram == expected

    def test_a_sink_that_only_emits_gets_every_clique_from_every_engine(self):
        # CollectSink overrides emit alone and sets no flag
        g = P.gen_gnp(60, 0.3, 1)
        expected = P.canonical_family(run_engine("ttt", g))
        assert len(expected) == 442
        runs = [lambda sink: P.ttt(g, None, sink)]
        for cfg in (P.ParallelConfig(threads=1), P.ParallelConfig(threads=2)):
            runs.append(lambda sink, cfg=cfg: P.par_ttt(g, None, sink, cfg))
            runs.append(lambda sink, cfg=cfg: P.par_mce(g, P.degree_rank(g), sink, cfg))
        for run in runs:
            sink = CollectSink()
            run(sink)
            assert len(sink.cliques) == 442
            assert P.canonical_family(sink.cliques) == expected

    def test_one_thread_listing_is_the_raw_stream_line_for_line(self):
        g = P.gen_moon_moser(8)  # 3^8 cliques: several chunks
        stream: list[tuple[int, ...]] = []
        reference_ttt(g.adj_sets, [], set(range(g.n)), set(), stream.append)
        out = io.StringIO()
        P.ttt(g, None, P.WriterSink(out))
        assert out.getvalue().splitlines() == [" ".join(map(str, c)) for c in stream]


class TestEnumerationReport:
    def make(self):
        hist = P.HistogramSink()
        for c in run_engine("ttt", P.gen_moon_moser(2)):
            hist.emit(c)
        return P.EnumerationReport.from_histogram(hist, rt=0.25, et=0.75, tt=1.0)

    def test_fields(self):
        rep = self.make()
        assert rep.clique_count == 9
        assert rep.size_histogram == {2: 9}
        assert rep.max_clique_size == 2
        assert rep.avg_clique_size == 2.0
        assert rep.tt_seconds == pytest.approx(rep.rt_seconds + rep.et_seconds)

    def test_kv_text(self):
        text = self.make().as_kv_text()
        assert "clique_count=9" in text
        assert "max_clique_size=2" in text
        assert "rt_seconds=0.250000" in text
        assert "hist[2]=9" in text

    def test_json_text(self):
        hist = P.HistogramSink()
        for c in [tuple(range(10)), (0, 10), (1, 10), (2, 10)]:
            hist.emit(c)
        rep = P.EnumerationReport.from_histogram(hist, rt=0.25, et=0.5, tt=0.75)
        assert rep.as_json() == """{
  "clique_count": 4,
  "size_histogram": {
    "2": 3,
    "10": 1
  },
  "max_clique_size": 10,
  "avg_clique_size": 4.0,
  "rt_seconds": 0.25,
  "et_seconds": 0.5,
  "tt_seconds": 0.75
}"""

    def test_json(self):
        data = json.loads(self.make().as_json())
        assert data["clique_count"] == 9
        assert data["size_histogram"] == {"2": 9}
