"""Benchmark driver: ingest or generate a graph, enumerate, report timings.

The report splits total time TT into RT (vertex ranking) and ET (parallel
enumeration). RT is zero for the engines that never rank; for the
decomposed engine it is measured even when the metric is a trivial degree
read-off, so the three-column timing shape is always reproducible.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .engines import par_mce, par_ttt, ttt
from .graph import EdgeListParseError, Graph, read_edge_list, write_edge_list
from .oracle import gen_complete, gen_gnp, gen_moon_moser
from .parallel import ParallelConfig
from .ranking import compute_rank
from .sinks import (
    CompositeSink,
    EnumerationReport,
    HistogramSink,
    WriterSink,
)

ALGOS = ("ttt", "parttt", "parmce")
ORDERINGS = ("degree", "triangle", "degeneracy")
MODES = ("count", "histogram", "list")


@dataclass
class RunConfig:
    input: str | None = None
    gen: str | None = None
    algo: str = "parmce"
    order: str | None = None
    threads: int = 1
    mode: str = "count"
    canonical: bool = False
    cutoff: int = 16
    output: str | None = None
    seed: int = 0
    original_labels: bool = False
    sweep: list[int] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.order is not None and self.algo != "parmce":
            raise ValueError("--order applies only to parmce")
        if self.order is not None and self.order not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.order!r}")
        if (self.input is None) == (self.gen is None):
            raise ValueError("exactly one of --input / --gen is required")

    @property
    def effective_order(self) -> str:
        return self.order if self.order is not None else "degree"


def parse_generator_spec(spec: str, default_seed: int = 0) -> Graph:
    """moonmoser:k | gnp:n,p[,seed] | complete:n"""
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    try:
        if name == "moonmoser":
            (k,) = args
            return gen_moon_moser(int(k))
        if name == "gnp":
            if len(args) == 2:
                n, p = args
                return gen_gnp(int(n), float(p), default_seed)
            n, p, seed = args
            return gen_gnp(int(n), float(p), int(seed))
        if name == "complete":
            (n,) = args
            return gen_complete(int(n))
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator {name!r} (use moonmoser|gnp|complete)")


def load_graph(cfg: RunConfig) -> Graph:
    if cfg.input is not None:
        return read_edge_list(cfg.input)
    assert cfg.gen is not None
    return parse_generator_spec(cfg.gen, cfg.seed)


def run_on_graph(
    g: Graph, cfg: RunConfig, clique_out: IO[str] | None = None
) -> EnumerationReport:
    """Rank (if needed), enumerate, and assemble the timing report."""
    hist_sink = HistogramSink()
    sinks: list = [hist_sink]
    if cfg.mode == "list":
        if clique_out is None:
            raise ValueError("list mode needs an output stream")
        sinks.append(
            WriterSink(
                clique_out,
                use_original_labels=cfg.original_labels,
                canonical=cfg.canonical,
                labels=g.labels,
            )
        )
    sink = CompositeSink(sinks)
    pconf = ParallelConfig(threads=cfg.threads, cutoff=cfg.cutoff)

    t_total = time.perf_counter()
    rt = 0.0
    rank = None
    if cfg.algo == "parmce":
        t0 = time.perf_counter()
        rank = compute_rank(g, cfg.effective_order)
        rt = time.perf_counter() - t0

    t1 = time.perf_counter()
    if cfg.algo == "ttt":
        ttt(g, None, sink)
    elif cfg.algo == "parttt":
        par_ttt(g, None, sink, pconf)
    else:
        assert rank is not None
        par_mce(g, rank, sink, pconf)
    et = time.perf_counter() - t1
    tt = time.perf_counter() - t_total

    sink.finalize()
    return EnumerationReport.from_histogram(hist_sink, rt=rt, et=et, tt=tt)


def run(cfg: RunConfig) -> EnumerationReport:
    g = load_graph(cfg)
    if cfg.mode == "list":
        if cfg.output is not None:
            with open(cfg.output, "w") as out:
                return run_on_graph(g, cfg, clique_out=out)
        return run_on_graph(g, cfg, clique_out=sys.stdout)
    return run_on_graph(g, cfg)


@dataclass
class SweepRow:
    threads: int
    et_seconds: float
    speedup: float
    clique_count: int


def scaling_sweep(cfg: RunConfig, thread_list: list[int]) -> list[SweepRow]:
    """Sequential baseline once, then the parallel engine per thread count.

    Speedup is baseline enumeration time over parallel enumeration time.
    Counts must agree across every row.
    """
    if cfg.algo == "ttt":
        raise ValueError("--sweep needs a parallel algorithm (parttt or parmce)")
    g = load_graph(cfg)

    base_cfg = RunConfig(
        input=cfg.input, gen=cfg.gen, algo="ttt", threads=1,
        mode="count", cutoff=cfg.cutoff, seed=cfg.seed,
    )
    base = run_on_graph(g, base_cfg)

    rows = []
    for t in thread_list:
        row_cfg = RunConfig(
            input=cfg.input, gen=cfg.gen, algo=cfg.algo, order=cfg.order,
            threads=t, mode="count", cutoff=cfg.cutoff, seed=cfg.seed,
        )
        rep = run_on_graph(g, row_cfg)
        if rep.clique_count != base.clique_count:
            raise RuntimeError(
                f"count mismatch at {t} threads: "
                f"{rep.clique_count} != {base.clique_count}"
            )
        rows.append(
            SweepRow(t, rep.et_seconds, base.et_seconds / rep.et_seconds,
                     rep.clique_count)
        )
    return rows


def format_sweep_table(rows: list[SweepRow]) -> str:
    header = f"{'threads':>8} {'et_seconds':>12} {'speedup':>9} {'cliques':>12}"
    lines = [header]
    lines.extend(
        f"{r.threads:>8} {r.et_seconds:>12.4f} {r.speedup:>9.2f} {r.clique_count:>12}"
        for r in rows
    )
    return "\n".join(lines)


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["threads", "et_seconds", "speedup", "clique_count"])
        for r in rows:
            w.writerow([r.threads, f"{r.et_seconds:.6f}", f"{r.speedup:.4f}",
                        r.clique_count])


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parmce",
        description="Maximal clique enumeration benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="enumerate maximal cliques and report")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="edge-list file to load")
    src.add_argument(
        "--gen", metavar="SPEC",
        help="synthetic graph: moonmoser:k | gnp:n,p[,seed] | complete:n",
    )
    p_run.add_argument("--algo", choices=ALGOS, default="parmce")
    p_run.add_argument(
        "--order", choices=ORDERINGS, default=None,
        help="vertex ranking for parmce (default degree)",
    )
    p_run.add_argument("--threads", type=int, default=1, metavar="N")
    p_run.add_argument("--mode", choices=MODES, default="count")
    p_run.add_argument(
        "--canonical", action="store_true",
        help="list mode: buffer and sort clique lines before writing",
    )
    p_run.add_argument("--cutoff", type=int, default=16, metavar="N",
                       help="min cand size for spawning parallel subproblems")
    p_run.add_argument("--output", metavar="FILE",
                       help="clique listing (list mode) or sweep CSV destination")
    p_run.add_argument("--seed", type=int, default=0,
                       help="seed for gnp specs that omit one")
    p_run.add_argument("--original-labels", action="store_true",
                       help="list mode: write input labels instead of dense ids")
    p_run.add_argument("--report-json", metavar="FILE",
                       help="also write the report as JSON")
    p_run.add_argument("--sweep", metavar="T1,T2,...",
                       help="thread counts: run baseline + one row per count")

    p_gen = sub.add_parser("gen", help="write a synthetic graph as an edge list")
    p_gen.add_argument("--gen", metavar="SPEC", required=True,
                       help="moonmoser:k | gnp:n,p[,seed] | complete:n")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", metavar="FILE",
                       help="destination (default stdout)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    sweep = None
    if args.sweep:
        sweep = [int(t) for t in args.sweep.split(",") if t]
        if not sweep or any(t < 1 for t in sweep):
            raise ValueError(f"bad sweep list {args.sweep!r}")
    return RunConfig(
        input=args.input,
        gen=args.gen,
        algo=args.algo,
        order=args.order,
        threads=args.threads,
        mode=args.mode,
        canonical=args.canonical,
        cutoff=args.cutoff,
        output=args.output,
        seed=args.seed,
        original_labels=args.original_labels,
        sweep=sweep,
    )


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    if cfg.sweep:
        rows = scaling_sweep(cfg, cfg.sweep)
        print(format_sweep_table(rows))
        csv_path = cfg.output if cfg.output else "sweep.csv"
        write_sweep_csv(rows, csv_path)
        print(f"wrote {csv_path}")
        return 0

    report = run(cfg)
    report_stream = sys.stdout
    if cfg.mode == "list" and cfg.output is None:
        report_stream = sys.stderr  # keep the clique listing clean on stdout
    print(report.as_kv_text(include_histogram=cfg.mode == "histogram"),
          file=report_stream)
    if args.report_json:
        Path(args.report_json).write_text(report.as_json() + "\n")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = parse_generator_spec(args.gen, args.seed)
    if args.output:
        with open(args.output, "w") as out:
            write_edge_list(g, out)
    else:
        write_edge_list(g, sys.stdout)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # bare flag usage defaults to the run subcommand
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_run(args, parser)
    except (EdgeListParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
