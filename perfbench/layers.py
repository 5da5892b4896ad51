"""The traced run: per-layer metrics measured from outside each layer.

Each probe is one forked operation that records spans around calls into a
layer's public functions. Where a call hides a deeper layer (`par_mce`
hides `run_task_pool`), the probe swaps the module attribute the caller
looks up for a span-recording wrapper, in its own process only; nothing in
`src/` is edited. Probes return their values, their spans, and the
outcomes of every enumeration they ran, which run.py checks like any other.

Which end-to-end metric each layer metric should move is in README.md.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import parmce.cli as cli
import parmce.engines as engines
from parmce.cli import ORDERINGS, RunConfig, run_on_graph
from parmce.engines import par_mce, par_ttt, subproblem_for_vertex, ttt, unrolled_children
from parmce.graph import read_edge_list
from parmce.oracle import gen_complete
from parmce.parallel import ParallelConfig, run_task_pool
from parmce.pivoting import par_pivot, select_pivot
from parmce.ranking import compute_rank
from parmce.sinks import CompositeSink, CountingSink, HistogramSink, WriterSink

from checks import outcome
from spans import Tracer
from workloads import Workload

MB = float(1 << 20)


def _hist_outcome(sink: HistogramSink) -> dict[str, Any]:
    return outcome(sink.count, sink.histogram)


class _Collector(HistogramSink):
    """A HistogramSink that asks the pool to ship every clique, and keeps them."""

    needs_cliques = True

    def __init__(self) -> None:
        super().__init__()
        self.cliques: list[tuple[int, ...]] = []

    def emit(self, clique: tuple[int, ...]) -> None:
        super().emit(clique)
        self.cliques.append(clique)


def _noop_task(task, emit, spawn, hungry) -> None:
    pass


def _trace_pool(tr: Tracer) -> None:
    """Record a span around every run_task_pool call made by the engines."""
    engines.run_task_pool = tr.wrap("parallel.run_task_pool", run_task_pool)


def probe_graph(path: Path) -> dict[str, Any]:
    tr = Tracer("graph")
    for _ in range(3):
        with tr.span("graph.read_edge_list"):
            g = read_edge_list(path)
    tracemalloc.start()
    try:
        held = read_edge_list(path)  # noqa: F841 - alive while memory is read
        held_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {
        "values": {
            "graph.load_s": statistics.median(tr.durations("graph.read_edge_list")),
            "graph.load_mb": held_bytes / MB,
        },
        "counters": {"n": g.n, "m": g.m},
        "spans": tr.spans,
    }


def probe_ranking(path: Path) -> dict[str, Any]:
    g = read_edge_list(path)
    tr = Tracer("ranking")
    values = {}
    for order in ORDERINGS:
        name = f"ranking.compute_rank.{order}"
        for _ in range(3):
            with tr.span(name):
                compute_rank(g, order)
        values[f"ranking.{order}_s"] = statistics.median(tr.durations(name))
    return {"values": values, "spans": tr.spans}


def probe_pivoting(path: Path, order: str) -> dict[str, Any]:
    """Both pivot rules on every per-vertex root subproblem."""
    g = read_edge_list(path)
    rank = compute_rank(g, order)
    tr = Tracer("pivoting")
    branch = cand_total = 0
    problems = []
    for v in range(g.n):
        with tr.span("engines.subproblem_for_vertex"):
            sp = subproblem_for_vertex(g, rank, v)
        if not (sp.cand or sp.fini):
            continue
        with tr.span("pivoting.select_pivot"):
            p = select_pivot(g, sp.cand, sp.fini)
        with tr.span("pivoting.par_pivot"):
            q = par_pivot(g, sp.cand, sp.fini)
        if p != q:
            problems.append(f"vertex {v}: select_pivot {p} != par_pivot {q}")
        branch += len(sp.cand - g.adj_sets[p])
        cand_total += len(sp.cand)
    return {
        "values": {
            "pivoting.select_us": 1e6 * statistics.mean(tr.durations("pivoting.select_pivot")),
            "pivoting.par_pivot_us": 1e6 * statistics.mean(tr.durations("pivoting.par_pivot")),
            "pivoting.branch_frac": branch / cand_total,
        },
        "counters": {"pivoting.branch_frac": branch / cand_total},
        "problems": problems[:5],
        "spans": tr.spans,
    }


def probe_root_split(path: Path) -> dict[str, Any]:
    """The first step of par_ttt: unroll the root subproblem once."""
    g = read_edge_list(path)
    tr = Tracer("root_split")
    engines.par_pivot = tr.wrap("pivoting.par_pivot", par_pivot)
    with tr.span("engines.unrolled_children"):
        children = unrolled_children(g, (), set(range(g.n)), set())
    return {
        "values": {
            "engines.root_split_s": tr.durations("engines.unrolled_children")[0],
            "engines.root_children": len(children),
        },
        "counters": {"engines.root_children": len(children)},
        "spans": tr.spans,
    }


def probe_tasks(path: Path, order: str) -> dict[str, Any]:
    """ttt on the root, then every per-vertex subproblem through ttt alone."""
    g = read_edge_list(path)
    tr = Tracer("tasks")
    whole = HistogramSink()
    with tr.span("engines.ttt"):
        ttt(g, None, whole)
    rank = compute_rank(g, order)
    parts = HistogramSink()
    for v in sorted(range(g.n), key=rank.key):  # par_mce's queue order
        sp = subproblem_for_vertex(g, rank, v)
        with tr.span("engines.ttt.task"):
            ttt(g, sp, parts)
    tasks = tr.durations("engines.ttt.task")
    return {
        "values": {
            "ttt_s": tr.durations("engines.ttt")[0],
            "engines.task_sum_s": sum(tasks),
            "engines.task_max_frac": max(tasks) / sum(tasks),
        },
        "outcomes": {"ttt": _hist_outcome(whole), "per-vertex ttt": _hist_outcome(parts)},
        "spans": tr.spans,
    }


def probe_parttt(path: Path, threads: int) -> dict[str, Any]:
    g = read_edge_list(path)
    tr = Tracer("parttt")
    _trace_pool(tr)
    sink = HistogramSink()
    with tr.span("engines.par_ttt"):
        par_ttt(g, None, sink, ParallelConfig(threads=threads))
    return {
        "values": {"parttt_s": tr.durations("engines.par_ttt")[0]},
        "outcomes": {"par_ttt": _hist_outcome(sink)},
        "spans": tr.spans,
    }


def probe_parmce_sinks(path: Path, order: str, threads: int, out: Path) -> dict[str, Any]:
    """par_mce with and without shipping cliques, then the sinks over them."""
    g = read_edge_list(path)
    rank = compute_rank(g, order)
    cfg = ParallelConfig(threads=threads)
    tr = Tracer("parmce")
    _trace_pool(tr)
    counting = HistogramSink()
    with tr.span("engines.par_mce"):
        par_mce(g, rank, counting, cfg)
    collector = _Collector()
    with tr.span("engines.par_mce.collect"):
        par_mce(g, rank, collector, cfg)
    cliques = collector.cliques

    with tr.span("sinks.WriterSink"):
        with open(out, "w") as f:
            writer = WriterSink(f)
            for c in cliques:
                writer.emit(c)
            writer.finalize()
    hist = HistogramSink()
    composite = CompositeSink([hist])
    with tr.span("sinks.CompositeSink.emit"):
        for c in cliques:
            composite.emit(c)
    parmce_s = tr.durations("engines.par_mce")[0]
    return {
        "values": {
            "parmce_et_s": parmce_s,
            "parallel.collect_s": tr.durations("engines.par_mce.collect")[0] - parmce_s,
            "sinks.write_s": tr.durations("sinks.WriterSink")[0],
            "sinks.write_mb": out.stat().st_size / MB,
            "sinks.emit_us": 1e6 * tr.durations("sinks.CompositeSink.emit")[0] / len(cliques),
        },
        "outcomes": {
            "par_mce": _hist_outcome(counting),
            "par_mce collected": _hist_outcome(collector),
            "CompositeSink": _hist_outcome(hist),
        },
        "spans": tr.spans,
    }


def probe_pool(threads: int, n_tasks: int) -> dict[str, Any]:
    """Pool start-up on a trivial graph, and per-task dispatch of no-ops."""
    tiny = gen_complete(8)
    rank = compute_rank(tiny, "degree")
    tr = Tracer("pool")
    serial, pooled = [], []
    for _ in range(5):
        for cfg, times in ((ParallelConfig(1), serial), (ParallelConfig(threads), pooled)):
            t0 = time.perf_counter()
            par_mce(tiny, rank, CountingSink(), cfg)
            times.append(time.perf_counter() - t0)
    tasks = list(range(n_tasks))  # not None: None stops a worker
    for _ in range(3):
        with tr.span("parallel.run_task_pool"):
            run_task_pool(tasks, _noop_task, ParallelConfig(threads), False)
    dispatch = statistics.median(tr.durations("parallel.run_task_pool"))
    return {
        "values": {
            "parallel.pool_start_s": statistics.median(pooled) - statistics.median(serial),
            "parallel.dispatch_us": 1e6 * dispatch / n_tasks,
        },
        "spans": tr.spans,
    }


def probe_tracing_overhead(path: Path, wl: Workload, threads: int, listing: Path) -> dict[str, Any]:
    """`parmce_s` as a CLI run computes it, traced and untraced, alternating.

    Traced runs record spans around `compute_rank`, `par_mce` and
    `run_task_pool`, as `cli.run_on_graph` calls them.
    """
    g = read_edge_list(path)
    cfg = RunConfig(input=str(path), algo="parmce", order=wl.order, threads=threads, mode=wl.mode)
    tr = Tracer("tracing")
    originals = (cli.compute_rank, cli.par_mce, engines.run_task_pool)
    traced = (
        tr.wrap("ranking.compute_rank", cli.compute_rank),
        tr.wrap("engines.par_mce", cli.par_mce),
        tr.wrap("parallel.run_task_pool", run_task_pool),
    )
    seconds: dict[bool, list[float]] = {True: [], False: []}
    outcomes = {}
    for i, tracing in enumerate((True, False, False, True)):
        cli.compute_rank, cli.par_mce, engines.run_task_pool = traced if tracing else originals
        with tr.span("cli.run_on_graph") if tracing else nullcontext():
            if wl.mode == "list":
                with open(listing, "w") as out:
                    rep = run_on_graph(g, cfg, clique_out=out)
            else:
                rep = run_on_graph(g, cfg)
        seconds[tracing].append(rep.rt_seconds + rep.et_seconds)
        outcomes[f"run_on_graph #{i}"] = outcome(rep.clique_count, rep.size_histogram)
    cli.compute_rank, cli.par_mce, engines.run_task_pool = originals
    traced_s = statistics.median(seconds[True])
    return {
        "values": {
            "trace.parmce_s": traced_s,
            "trace.overhead_s": traced_s - statistics.median(seconds[False]),
        },
        "outcomes": outcomes,
        "spans": tr.spans,
    }
