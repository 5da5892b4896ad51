"""Shared-memory parallel maximal clique enumeration."""

from .engines import (
    Subproblem,
    par_mce,
    par_ttt,
    subproblem_for_vertex,
    ttt,
    unrolled_children,
)
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
from .pivoting import par_pivot, select_pivot
from .ranking import (
    RankAssignment,
    compute_rank,
    degeneracy_rank,
    degree_rank,
    triangle_counts,
)
from .sinks import (
    CliqueSink,
    CompositeSink,
    CountingSink,
    EnumerationReport,
    HistogramSink,
    WriterSink,
)

__all__ = [
    "CliqueSink",
    "CompositeSink",
    "CountingSink",
    "EdgeListParseError",
    "EnumerationReport",
    "Graph",
    "HistogramSink",
    "ParallelConfig",
    "RankAssignment",
    "Subproblem",
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
    "par_pivot",
    "par_ttt",
    "read_edge_list",
    "select_pivot",
    "subproblem_for_vertex",
    "triangle_counts",
    "ttt",
    "unrolled_children",
    "write_edge_list",
]

__version__ = "0.1.0"
