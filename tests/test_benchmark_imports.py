"""The benchmark in perfbench/ imports this package by name, so deleting a
name it reads breaks the benchmark; this check fails first."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Past the imports: layers.py swaps three module attributes for traced
# wrappers, ops.py imports run_on_graph only when it runs, the probes read
# attributes off graphs, ranks and sinks, and ops.py and layers.py build
# their configs with these keywords. The command line that times
# time_to_result_s must parse into a config for every workload, and so
# must engine_op's config for every engine.
CHECK = """
import layers, ops, run
import parmce.cli as cli, parmce.engines as engines
from pathlib import Path
from parmce.graph import Graph
from parmce.parallel import ParallelConfig
from parmce.ranking import RankAssignment
from parmce.sinks import HistogramSink
from workloads import WORKLOADS
cli.compute_rank, cli.par_mce, engines.run_task_pool, cli.run_on_graph
Graph.adj_lists, RankAssignment.key, HistogramSink.count
cli.RunConfig(input="g.txt", algo="parmce", order="degree", threads=2, mode="list")
ParallelConfig(threads=2), ParallelConfig(1)
for wl in WORKLOADS.values():
    for algo in ("ttt", "parttt", "parmce"):
        cli.RunConfig(input="g.txt", algo=algo, order=wl.order if algo == "parmce" else None,
                      threads=1 if algo == "ttt" else 2, mode=wl.mode)
    cmd = ops.cli_command(Path("g.txt"), wl, 2, Path("r.json"), Path("l.txt"))
    assert cmd[1:3] == ["-m", "parmce.cli"], cmd
    cfg, report = cli._config_from_args(cli.build_parser().parse_args(cmd[3:]))
    assert (cfg.mode, cfg.threads, report) == (wl.mode, 2, "r.json"), (wl.name, cfg)
"""


def test_the_benchmark_finds_every_name_it_reads(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHECK],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
