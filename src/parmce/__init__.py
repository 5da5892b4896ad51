"""Shared-memory parallel maximal clique enumeration."""

from .engines import par_mce, par_ttt, ttt
from .graph import (
    EdgeListParseError,
    Graph,
    load_edge_list,
    read_edge_list,
    write_edge_list,
)
from .oracle import (
    brute_force_mce,
    canonical_family,
    gen_complete,
    gen_gnp,
    gen_moon_moser,
)
from .parallel import ParallelConfig
from .ranking import (
    RankAssignment,
    compute_rank,
    degeneracy_rank,
    degree_rank,
    triangle_counts,
)
from .sinks import CliqueSink, EnumerationReport, HistogramSink, WriterSink

__all__ = [
    "CliqueSink",
    "EdgeListParseError",
    "EnumerationReport",
    "Graph",
    "HistogramSink",
    "ParallelConfig",
    "RankAssignment",
    "WriterSink",
    "brute_force_mce",
    "canonical_family",
    "compute_rank",
    "degeneracy_rank",
    "degree_rank",
    "gen_complete",
    "gen_gnp",
    "gen_moon_moser",
    "load_edge_list",
    "par_mce",
    "par_ttt",
    "read_edge_list",
    "triangle_counts",
    "ttt",
    "write_edge_list",
]

__version__ = "0.1.0"
