#!/usr/bin/env python3
"""The parmce benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-er --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs building. The load is a closed loop with one client:
one enumeration at a time, each in its own forked process under a
deadline. `--trace 0` measures the end-to-end metrics, interleaving the
four operations; `--trace 1` runs the per-layer probes instead, with
spans. The last line of stdout is the JSON result; the lines
before it are the same numbers for people, plus host facts and counters.
Files go to `perfbench/_work/`. See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Any, Callable

from checks import check_counters, moonmoser_digest
from isolate import OpFailed, run_isolated
from ops import cli_op, engine_op
from spans import self_seconds_by_layer
from workloads import MOONMOSER_K, WORKLOADS, GraphFile, Workload, timed_setup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

BASELINE_SEED = 1  # baselines are measured on this seed
HELD_OUT_SEED = 2  # kept for confirming a claimed gain, never for tuning

E2E_UNITS = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "ttt_s": "s",
    "parttt_s": "s",
    "parmce_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.load_mb": "MB",
    "ranking.degree_s": "s",
    "ranking.triangle_s": "s",
    "ranking.degeneracy_s": "s",
    "pivoting.select_us": "us",
    "pivoting.par_pivot_us": "us",
    "pivoting.branch_frac": "ratio",
    "engines.root_split_s": "s",
    "engines.root_children": "count",
    "engines.task_sum_s": "s",
    "engines.decomp_ratio": "ratio",
    "engines.task_max_frac": "ratio",
    "parallel.pool_start_s": "s",
    "parallel.dispatch_us": "us",
    "parallel.collect_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.speedup_parmce": "ratio",
    "parallel.speedup_parttt": "ratio",
    "parallel.host_ceiling": "ratio",
    "sinks.write_s": "s",
    "sinks.write_mb": "MB",
    "sinks.emit_us": "us",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

E2E_OPS = ("cli", "ttt", "parttt", "parmce")
OP_METRIC = {"cli": "time_to_result_s", "ttt": "ttt_s", "parttt": "parttt_s", "parmce": "parmce_s"}
SETUP_SHARE = 0.05  # of the measuring time, spent on repeating the set-up
OP_TIMEOUT_S = 120.0  # a failed operation is charged this much
RUN_DEADLINE_S = 165.0  # no operation starts or runs past this


def _median_q(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _burn(n: int) -> int:
    s = set(range(200))
    t = frozenset(range(100, 300))
    x = 0
    for _ in range(n):
        x += len(s & t)
    return x


def host_ceiling() -> tuple[float, float]:
    """Two independent CPU-bound processes against one: the most any
    2-process speedup can reach here (the method of acceptance test_08).

    Also returns the single-process time, which shows how fast the host
    ran during this run.
    """
    ctx = mp.get_context("fork")
    n = 200_000
    t0 = time.perf_counter()
    _burn(n)
    solo = time.perf_counter() - t0
    procs = [ctx.Process(target=_burn, args=(n,)) for _ in range(2)]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    return 2 * solo / (time.perf_counter() - t0), solo


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(seed: int, threads: int) -> dict[str, Any]:
    ceiling, solo = host_ceiling()
    return {
        "nproc": threads,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "parallel.host_ceiling": ceiling,
        "calibration_s": solo,
    }


class Run:
    """One benchmark run: its deadline, operations and checked outcomes."""

    def __init__(
        self, wl: Workload, seed: int, seconds: float, graph: GraphFile, graph_path: Path
    ) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.graph = graph
        self.graph_path = graph_path
        self.threads = len(os.sched_getaffinity(0))
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0  # operations; failures also lists run-level problems
        self.failures: list[str] = []
        self.reference: dict[str, Any] | None = None
        self.digest = None  # of the exact expected listing, in list mode
        if wl.mode == "list":
            self.digest = moonmoser_digest(graph.dense_part, MOONMOSER_K)

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def isolated(self, label: str, fn: Callable[[], Any]) -> Any:
        """fn() in its own process; None (and a recorded failure) if it fails."""
        timeout = min(OP_TIMEOUT_S, self.time_left())
        try:
            if timeout <= 1.0:
                raise OpFailed("not started, run deadline reached")
            return run_isolated(fn, timeout)
        except OpFailed as exc:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{label}: {exc}")
            return None

    def check(self, label: str, got: dict[str, Any], problem: str | None = None) -> bool:
        """Count one enumeration; True if its output is right."""
        self.attempted += 1
        if problem is None and self.reference is None:
            self.reference = got
        if problem is None and got != self.reference:
            problem = f"clique count/histogram {got} differ from ttt {self.reference}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")
        return problem is None


def measure_e2e(run: Run, setup_times: list[float]) -> tuple[dict[str, list[float]], dict[str, Any]]:
    """The four operations, interleaved, until --seconds have passed.

    Two rounds run first, each operation once per round, in an order that
    rotates between rounds. The rest of the budget goes to whichever
    operation has had the least wall time so far, as long as one more of it
    fits, so short operations gather many samples spread over the run
    instead of a few taken back to back. Between operations the set-up is
    repeated (at least 20 ms at a time, within SETUP_SHARE of the time), so
    its median, too, spans the run. The `ttt` samples are the reference
    every other operation is checked against.
    """
    from parmce.graph import read_edge_list

    wl, threads = run.wl, run.threads
    g = read_edge_list(run.graph_path)
    ops = {
        "cli": partial(cli_op, SRC, run.graph_path, wl, threads, WORK, run.digest),
        **{
            algo: partial(
                engine_op, g, run.graph_path, wl, algo, threads,
                WORK / f"listing-{algo}.txt", run.digest,
            )
            for algo in ("ttt", "parttt", "parmce")
        },
    }
    first_rounds = [E2E_OPS[(i + r) % 4] for r in range(2) for i in range(4)]
    wall = dict.fromkeys(E2E_OPS, 0.0)
    count = dict.fromkeys(E2E_OPS, 0)
    collected: list[tuple[str, Any]] = []
    t0 = time.monotonic()
    while True:
        if first_rounds:
            name = first_rounds.pop(0)
        else:
            name = min(E2E_OPS, key=wall.__getitem__)
            if time.monotonic() - t0 + wall[name] / count[name] > run.seconds:
                break
        if run.time_left() < 2 * max(w / max(c, 1) for w, c in zip(wall.values(), count.values())):
            break
        t_op = time.monotonic()
        sample = run.isolated(name, ops[name])
        wall[name] += time.monotonic() - t_op
        count[name] += 1
        if sample is not None:
            collected.append((name, sample))
        if sum(setup_times) < SETUP_SHARE * (time.monotonic() - t0):
            slot = time.monotonic()
            while time.monotonic() - slot < 0.02:
                setup_times.append(timed_setup(wl.name, run.seed, run.graph_path, run.graph.text)[1])

    collected.sort(key=lambda item: item[0] != "ttt")  # the reference first
    values: dict[str, list[float]] = {"setup_s": setup_times}
    for name, s in collected:
        if run.check(name, s.outcome, s.problem):
            values.setdefault(OP_METRIC[name], []).append(s.seconds)
            if name == "cli":
                values.setdefault("peak_rss_mb", []).append(s.facts["peak_rss_mb"])
    return values, {"operations": count, "n": g.n, "m": g.m}


def measure_layers(run: Run, host: dict[str, Any]) -> tuple[dict[str, list[float]], dict[str, Any], list]:
    """Every per-layer probe once, in its own process, with spans."""
    import layers

    wl, path, threads = run.wl, run.graph_path, run.threads
    probes = [
        ("graph", partial(layers.probe_graph, path)),
        ("ranking", partial(layers.probe_ranking, path)),
        ("pivoting", partial(layers.probe_pivoting, path, wl.order)),
        ("root_split", partial(layers.probe_root_split, path)),
        ("tasks", partial(layers.probe_tasks, path, wl.order)),
        ("parttt", partial(layers.probe_parttt, path, threads)),
        ("parmce", partial(layers.probe_parmce_sinks, path, wl.order, threads, WORK / "sinks.txt")),
        ("pool", lambda: layers.probe_pool(threads, counters["n"])),  # n from "graph"
        ("tracing", partial(layers.probe_tracing_overhead, path, wl, threads, WORK / "listing-trace.txt")),
    ]
    v: dict[str, float] = {"parallel.host_ceiling": host["parallel.host_ceiling"]}
    counters: dict[str, Any] = {}
    spans: list = []
    for label, fn in probes:
        got = run.isolated(label, fn)
        if got is None:
            continue
        v.update(got["values"])
        counters.update(got.get("counters", {}))
        spans += got["spans"]
        for name, out in sorted(got.get("outcomes", {}).items(), key=lambda kv: kv[0] != "ttt"):
            run.check(f"{label}/{name}", out)
        for problem in got.get("problems", []):
            run.check(label, {}, problem)
    s = run.isolated(
        "cli subprocess",
        partial(cli_op, SRC, path, wl, threads, WORK, run.digest),
    )
    if s is not None:
        if run.check("cli subprocess", s.outcome, s.problem) and "graph.load_s" in v:
            # what is left after the run's own RT + ET and the load
            v["cli.overhead_s"] = s.seconds - s.facts["parmce_s"] - v["graph.load_s"]
    if {"ttt_s", "engines.task_sum_s", "parmce_et_s", "parttt_s"} <= v.keys():
        v["engines.decomp_ratio"] = v["engines.task_sum_s"] / v["ttt_s"]
        v["parallel.efficiency"] = v["engines.task_sum_s"] / (threads * v["parmce_et_s"])
        v["parallel.speedup_parmce"] = v["ttt_s"] / v["parmce_et_s"]
        v["parallel.speedup_parttt"] = v["ttt_s"] / v["parttt_s"]
    return {k: [x] for k, x in v.items()}, counters, spans


def _reference_counters(run: Run) -> dict[str, Any]:
    ref = run.reference
    if ref is None:
        return {}
    return {**ref, "max_clique_size": max(ref["histogram"], default=0)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASELINE_SEED,
                    help=f"workload seed (baseline {BASELINE_SEED}, held out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=38.0, help="measurement budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced per-layer run instead of end-to-end")
    args = ap.parse_args(argv)

    if not (SRC / "parmce" / "__init__.py").is_file():
        print(f"error: no parmce sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import parmce

    if Path(parmce.__file__).resolve().parent != SRC / "parmce":
        print(f"error: imported parmce from {parmce.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    graph_path = WORK / f"graph-{wl.name}.txt"
    graph, first = timed_setup(wl.name, args.seed, graph_path)
    setup_times = [first] + [
        timed_setup(wl.name, args.seed, graph_path, graph.text)[1] for _ in range(2)
    ]
    run = Run(wl, args.seed, args.seconds, graph, graph_path)
    host = host_facts(args.seed, run.threads)
    print("# host " + json.dumps(host))

    spans: list = []
    if args.trace:
        values, facts, spans = measure_layers(run, host)
        units = LAYER_UNITS
    else:
        values, facts = measure_e2e(run, setup_times)
        units = E2E_UNITS
        print(f"# operations {json.dumps(facts.pop('operations'))}")
    counters = {**_reference_counters(run), **facts}
    for problem in check_counters(counters, wl.name, args.seed, WORK):
        run.failures.append(f"deterministic counter changed: {problem}")

    metrics: dict[str, dict[str, Any]] = {}
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    print(f"# {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, unit in units.items():
        samples = values.get(name)
        if not samples:
            run.failures.append(f"{name}: no successful measurement")
            samples = [OP_TIMEOUT_S]
        q1, med, q3 = _median_q(samples)
        metrics[name] = {"value": med, "unit": unit}
        print(f"# {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(samples):>5}  {unit}")
    attempted = max(run.attempted, 1)
    print(f"# fail_rate {run.failed / attempted:.4g} ({run.failed} failed of {attempted} attempted)")
    if args.trace:
        if "trace.parmce_s" in values:
            print(f"# trace.parmce_s {values['trace.parmce_s'][0]:.6g} s traced, "
                  f"overhead {metrics['trace.overhead_s']['value']:.6g} s")
        for layer, secs in self_seconds_by_layer(spans).items():
            print(f"# self time {layer:<12}{secs:>12.6f} s")
    print("# counters " + json.dumps(counters, sort_keys=True))
    for f in run.failures:
        print(f"# FAILED {f}")

    tag = f"{wl.name}-{args.seed}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"host": host, "workload": asdict(wl), "samples": values, "counters": counters,
         "failures": run.failures}, indent=1))
    if args.trace:
        (WORK / f"spans-{tag}.json").write_text(json.dumps([s._asdict() for s in spans]))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
