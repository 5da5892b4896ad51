"""The end-to-end operations. Each runs in its own forked process.

One operation is one full enumeration, and gives one sample. An engine
operation times `cli.run_on_graph` on the graph the driver loaded before
forking it, as a CLI run would after loading. The CLI operation times a
fresh `parmce run` subprocess from spawn to exit.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import check_listing, outcome
from workloads import MOONMOSER_K, Workload


@dataclass
class Sample:
    seconds: float
    outcome: dict[str, Any]
    problem: str | None = None  # set when the output itself is wrong
    facts: dict[str, Any] = field(default_factory=dict)


def _listing_problem(listing: Path, wl: Workload, digest: bytes | None) -> str | None:
    if wl.mode != "list":
        return None
    if digest is None:
        return "no expected listing for a list-mode workload"
    return check_listing(listing, digest, MOONMOSER_K)


def _touch(g) -> None:
    """Take this process's copy of every page of the inherited graph.

    A CLI user's graph is private, so copy-on-write faults on the first
    write of each reference count must not land in the timed region.
    """
    for table in (g.adj_sets, g.adj_lists):
        for nbrs in table:
            for _ in nbrs:
                pass


def engine_op(
    g,
    graph_path: Path,
    wl: Workload,
    algo: str,
    threads: int,
    listing: Path,
    digest: bytes | None,
) -> Sample:
    """A `ttt_s` (ET), `parttt_s` (ET) or `parmce_s` (RT + ET) sample."""
    from parmce.cli import RunConfig, run_on_graph

    _touch(g)
    cfg = RunConfig(
        input=str(graph_path),
        algo=algo,
        order=wl.order if algo == "parmce" else None,
        threads=1 if algo == "ttt" else threads,
        mode=wl.mode,
    )
    if wl.mode == "list":
        with open(listing, "w") as out:
            rep = run_on_graph(g, cfg, clique_out=out)
    else:
        rep = run_on_graph(g, cfg)
    return Sample(
        rep.rt_seconds + rep.et_seconds,
        outcome(rep.clique_count, rep.size_histogram),
        _listing_problem(listing, wl, digest),
    )


def cli_command(
    graph_path: Path, wl: Workload, threads: int, report: Path, listing: Path
) -> list[str]:
    """`parmce run ...`; the console script is `parmce.cli:main`."""
    cmd = [
        sys.executable, "-m", "parmce.cli", "run",
        "--input", str(graph_path),
        "--algo", "parmce",
        "--order", wl.order,
        "--threads", str(threads),
        "--mode", wl.mode,
        "--report-json", str(report),
    ]
    if wl.mode == "list":
        cmd += ["--output", str(listing)]
    return cmd


def cli_op(
    src: Path,
    graph_path: Path,
    wl: Workload,
    threads: int,
    work: Path,
    digest: bytes | None,
) -> Sample:
    """A `time_to_result_s` sample, with the run's `peak_rss_mb`.

    This process is a fresh fork, so its children's peak resident set is
    the largest of the CLI process and the pool workers it reaped.
    """
    report = work / "cli-report.json"
    listing = work / "listing-cli.txt"
    cmd = cli_command(graph_path, wl, threads, report, listing)
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"parmce run exited {proc.returncode}: {proc.stderr}")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    rep = json.loads(report.read_text())
    return Sample(
        seconds,
        outcome(rep["clique_count"], rep["size_histogram"]),
        _listing_problem(listing, wl, digest),
        {"peak_rss_mb": rss_mb, "parmce_s": rep["rt_seconds"] + rep["et_seconds"]},
    )
