import io
import json

import pytest

import parmce as P

from util import run_engine


class TestCountingSink:
    def test_counts_emissions(self):
        s = P.CountingSink()
        s.emit((0, 1))
        s.emit((1, 2))
        assert s.count == 2

    def test_zero_without_emissions(self):
        assert P.CountingSink().count == 0

    def test_moon_moser_full_run(self):
        s = P.CountingSink()
        P.ttt(P.gen_moon_moser(3), None, s)
        assert s.count == 27

    def test_absorb(self):
        s = P.CountingSink()
        s.absorb({2: 3, 3: 2})
        s.absorb({2: 2})
        assert s.count == 7
        s.absorb({})
        assert s.count == 7


class TestHistogramSink:
    def test_two_edges(self):
        s = P.HistogramSink()
        s.emit((0, 1))
        s.emit((1, 2))
        assert dict(s.histogram) == {2: 2}
        assert s.max_size == 2
        assert s.avg_size == 2.0

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
        s.absorb({2: 1, 3: 1})
        assert s.count == 2
        assert s.avg_size == 2.5

    def test_empty(self):
        s = P.HistogramSink()
        assert s.max_size == 0
        assert s.avg_size == 0.0


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
        s = P.WriterSink(out, use_original_labels=True, labels=(5, 7))
        s.emit((0, 1))
        s.finalize()
        assert out.getvalue() == "5 7\n"

    def test_original_labels_requires_labels(self):
        with pytest.raises(ValueError):
            P.WriterSink(io.StringIO(), use_original_labels=True)

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
            cfg = P.ParallelConfig(threads=threads, cutoff=8)
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
        count = P.CountingSink()
        hist = P.HistogramSink()
        out = io.StringIO()
        combo = P.CompositeSink([count, hist, P.WriterSink(out)])
        assert combo.needs_cliques
        P.ttt(P.gen_moon_moser(2), None, combo)
        combo.finalize()
        assert count.count == 9
        assert dict(hist.histogram) == {2: 9}
        assert len(out.getvalue().splitlines()) == 9

    def test_needs_cliques_false_for_stats_only(self):
        combo = P.CompositeSink([P.CountingSink(), P.HistogramSink()])
        assert not combo.needs_cliques

    def test_absorb_path_matches_sequential_count(self):
        g = P.gen_gnp(60, 0.3, 4)
        seq = P.CountingSink()
        P.ttt(g, None, seq)
        par = P.CompositeSink([P.CountingSink(), P.HistogramSink()])
        P.par_mce(g, P.degree_rank(g), par, P.ParallelConfig(threads=2, cutoff=8))
        assert par.sinks[0].count == seq.count
        assert sum(par.sinks[1].histogram.values()) == seq.count


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
        text = self.make().as_kv_text(include_histogram=True)
        assert "clique_count=9" in text
        assert "max_clique_size=2" in text
        assert "rt_seconds=0.250000" in text
        assert "hist[2]=9" in text

    def test_json(self):
        data = json.loads(self.make().as_json())
        assert data["clique_count"] == 9
        assert data["size_histogram"] == {"2": 9}
