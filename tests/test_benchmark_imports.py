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
# their configs with these keywords.
CHECK = """
import layers, ops, run
import parmce.cli as cli, parmce.engines as engines
from parmce.graph import Graph
from parmce.parallel import ParallelConfig
from parmce.ranking import RankAssignment
from parmce.sinks import HistogramSink
cli.compute_rank, cli.par_mce, engines.run_task_pool, cli.run_on_graph
Graph.adj_lists, RankAssignment.key, HistogramSink.count
cli.RunConfig(input="g.txt", algo="parmce", order="degree", threads=2, mode="list")
ParallelConfig(threads=2), ParallelConfig(1)
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
