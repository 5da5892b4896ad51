"""Benchmark driver: ingest or generate a graph, enumerate, report timings.

The report splits total time TT into RT (vertex ranking) and ET (parallel
enumeration). RT is zero for the engines that never rank; for the
decomposed engine it is measured even when the metric is a trivial degree
read-off, so the three-column timing shape is always reproducible. The
kv and JSON reports carry the same fields, the size histogram included,
in both modes. Runs are `parmce run ...`; bare flags are a usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import IO

from .engines import par_mce, par_ttt
from .graph import EdgeListParseError, Graph, read_edge_list, write_edge_list
from .oracle import gen_complete, gen_gnp, gen_moon_moser
from .parallel import ParallelConfig
from .ranking import ORDERINGS, compute_rank
from .sinks import EnumerationReport, HistogramSink, WriterSink

ALGOS = ("ttt", "parttt", "parmce")
MODES = ("count", "list")


@dataclass
class RunConfig:
    input: str | None = None
    gen: str | None = None
    algo: str = "parmce"
    order: str | None = None
    threads: int = ParallelConfig.threads
    mode: str = "count"
    canonical: bool = False
    output: str | None = None
    original_labels: bool = False
    sweep: list[int] | None = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        ParallelConfig(self.threads)  # raises unless threads >= 1
        if self.threads > 1 and self.algo == "ttt":
            raise ValueError("ttt runs on one thread; --threads above 1 needs parttt or parmce")
        if self.order is not None and self.algo != "parmce":
            raise ValueError("--order applies only to parmce")
        if self.order is not None and self.order not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.order!r}")
        if self.mode != "list" and (self.canonical or self.original_labels):
            raise ValueError("--canonical and --original-labels apply only to --mode list")
        if self.sweep and self.algo == "ttt":
            raise ValueError("--sweep needs a parallel algorithm (parttt or parmce)")
        if self.sweep and self.mode != "count":
            raise ValueError("--sweep reports counts only; it takes no --mode list")
        if self.sweep and self.threads != 1:
            raise ValueError("--sweep sets the thread counts; it takes no --threads")
        if (self.input is None) == (self.gen is None):
            raise ValueError("exactly one of --input / --gen is required")


def parse_generator_spec(spec: str) -> Graph:
    """moonmoser:k | gnp:n,p[,seed] | complete:n (the gnp seed defaults to 0)"""
    name, _, rest = spec.partition(":")
    args = rest.split(",")
    try:
        if name == "moonmoser":
            (k,) = args
            return gen_moon_moser(int(k))
        if name == "gnp":
            if len(args) == 2:
                args.append("0")
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
    return parse_generator_spec(cfg.gen)


def run_on_graph(
    g: Graph, cfg: RunConfig, clique_out: IO[str] | None = None
) -> EnumerationReport:
    """Rank (if needed), enumerate, and assemble the timing report."""
    if cfg.mode != "list":
        sink = HistogramSink()
    elif clique_out is None:
        raise ValueError("list mode needs an output stream")
    else:
        sink = WriterSink(
            clique_out,
            canonical=cfg.canonical,
            labels=g.labels if cfg.original_labels else range(g.n),
        )
    pconf = ParallelConfig(threads=cfg.threads)

    t_total = time.perf_counter()
    rt = 0.0
    rank = None
    if cfg.algo == "parmce":
        t0 = time.perf_counter()
        rank = compute_rank(g, cfg.order or "degree")
        rt = time.perf_counter() - t0

    t1 = time.perf_counter()
    if cfg.algo != "parmce":  # ttt is par_ttt at one thread, which RunConfig holds it to
        par_ttt(g, None, sink, pconf)
    else:
        assert rank is not None
        par_mce(g, rank, sink, pconf)
    et = time.perf_counter() - t1
    tt = time.perf_counter() - t_total

    sink.finalize()
    return EnumerationReport.from_histogram(sink, rt=rt, et=et, tt=tt)


def run(cfg: RunConfig) -> EnumerationReport:
    g = load_graph(cfg)
    if cfg.mode != "list":
        return run_on_graph(g, cfg)
    with open(cfg.output, "w") if cfg.output else nullcontext(sys.stdout) as out:
        return run_on_graph(g, cfg, clique_out=out)


@dataclass
class SweepRow:
    threads: int
    et_seconds: float
    speedup: float
    clique_count: int


def scaling_sweep(cfg: RunConfig) -> list[SweepRow]:
    """Sequential baseline once, then the parallel engine per count in cfg.sweep.

    Speedup is baseline enumeration time over parallel enumeration time.
    Counts must agree across every row.
    """
    g = load_graph(cfg)

    base = run_on_graph(g, replace(cfg, algo="ttt", order=None, threads=1, sweep=None))

    rows = []
    for t in cfg.sweep:
        rep = run_on_graph(g, replace(cfg, threads=t, sweep=None))
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


def write_sweep_csv(rows: list[SweepRow], out: IO[str]) -> None:
    """The sweep table as CSV; open `out` with newline=""."""
    w = csv.writer(out)
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

    # every run option but --report-json is a RunConfig field of the same
    # name, and an option left out takes that field's default
    p_run = sub.add_parser(
        "run", help="enumerate maximal cliques and report",
        argument_default=argparse.SUPPRESS,
    )
    p_run.set_defaults(parser=p_run)  # for usage errors found past argparse
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="edge-list file to load")
    src.add_argument(
        "--gen", metavar="SPEC",
        help="synthetic graph: moonmoser:k | gnp:n,p[,seed] | complete:n",
    )
    p_run.add_argument("--algo", choices=ALGOS)
    p_run.add_argument(
        "--order", choices=ORDERINGS,
        help="vertex ranking for parmce (default degree)",
    )
    p_run.add_argument("--threads", type=int, metavar="N")
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument(
        "--canonical", action="store_true",
        help="list mode: buffer every clique, then write them sorted by their "
             "dense-id tuples (numerically, not as text)",
    )
    p_run.add_argument("--output", metavar="FILE",
                       help="clique listing (list mode), or the sweep's CSV table "
                            "(without it a sweep only prints the table)")
    p_run.add_argument("--original-labels", action="store_true",
                       help="list mode: write input labels instead of dense ids")
    p_run.add_argument("--report-json", metavar="FILE",
                       help="also write the report as JSON")
    p_run.add_argument("--sweep", metavar="T1,T2,...",
                       help="thread counts: run baseline + one row per count")

    p_gen = sub.add_parser("gen", help="write a synthetic graph as an edge list")
    p_gen.add_argument("--gen", metavar="SPEC", required=True,
                       help="moonmoser:k | gnp:n,p[,seed] | complete:n")
    p_gen.add_argument("--output", metavar="FILE",
                       help="destination (default stdout)")
    return parser


def _config_from_args(args: argparse.Namespace) -> tuple[RunConfig, str | None]:
    """The run's settings, and the --report-json path if one was given."""
    opts = vars(args).copy()
    del opts["command"], opts["parser"]
    report_json = opts.pop("report_json", None)
    if "sweep" in opts:
        try:
            sweep = [int(t) for t in opts["sweep"].split(",")]
        except ValueError:
            sweep = []
        if not sweep or min(sweep) < 1:
            raise ValueError(f"bad sweep list {opts['sweep']!r}")
        if report_json:
            raise ValueError("--sweep writes a CSV table; it takes no --report-json")
        opts["sweep"] = sweep
    return RunConfig(**opts), report_json


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg, report_json = _config_from_args(args)
    except ValueError as exc:
        args.parser.error(str(exc))  # exits 2

    # output files are opened before the enumeration, so a bad path fails at once
    if cfg.sweep:
        with open(cfg.output, "w", newline="") if cfg.output else nullcontext() as csv_out:
            rows = scaling_sweep(cfg)
            print(format_sweep_table(rows))
            if csv_out:
                write_sweep_csv(rows, csv_out)
                print(f"wrote {cfg.output}")
        return 0

    with open(report_json, "w") if report_json else nullcontext() as json_out:
        report = run(cfg)
        listing_on_stdout = cfg.mode == "list" and cfg.output is None
        # keep a clique listing on stdout clean
        print(report.as_kv_text(), file=sys.stderr if listing_on_stdout else sys.stdout)
        if json_out:
            json_out.write(report.as_json() + "\n")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = parse_generator_spec(args.gen)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        write_edge_list(g, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_run(args)
    except (EdgeListParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
