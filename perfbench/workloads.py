"""Seeded workload graphs, written as edge-list files.

Every generator draws only `random.Random(seed).random()` floats and derives
integers from them itself, so a seed names the same file on every Python
version. The program under test never sees the seed: it only reads the file.

For Moon-Moser the generator also works out, from the file it wrote, the
dense id the program's first-appearance relabelling gives each label, so
a listing in dense ids can be checked against the generator's own parts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the CLI --mode: "count" or "list"
    order: str  # the parmce --order
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-er", "count", "degree",
            "G(600, 0.2): the pivot kernel dominates; load and rank are a few %",
        ),
        Workload(
            "sparse-powerlaw", "count", "degeneracy",
            "SNAP-style preferential attachment, n=20k: parsing, ranking and "
            "per-vertex dispatch dominate; exposes the par_ttt root split",
        ),
        Workload(
            "list-moonmoser", "list", "degree",
            "Moon-Moser k=10, 3^10 cliques listed to a file: the result path "
            "and sinks dominate",
        ),
    )
}

DENSE_N, DENSE_P = 600, 0.2
SPARSE_N, SPARSE_ATTACH = 20_000, 5
MOONMOSER_K = 10


@dataclass
class GraphFile:
    """What the benchmark knows about a generated file, beyond its bytes."""

    text: str
    dense_part: list[int] | None = None  # Moon-Moser part of each dense id


def _randbelow(rng: random.Random, k: int) -> int:
    return min(int(rng.random() * k), k - 1)


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _scramble(rng: random.Random, edges: list[tuple[int, int]]) -> None:
    """Shuffle edge order and flip each edge's orientation, in place."""
    for i in range(len(edges) - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        edges[i], edges[j] = edges[j], edges[i]
    for i, (u, v) in enumerate(edges):
        if rng.random() < 0.5:
            edges[i] = (v, u)


def _dense_ids(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Label -> dense id in first-appearance order, as the loader assigns."""
    ids: dict[int, int] = {}
    for u, v in edges:
        ids.setdefault(u, len(ids))
        ids.setdefault(v, len(ids))
    return ids


def _dense_er(rng: random.Random) -> GraphFile:
    n, p = DENSE_N, DENSE_P
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    label = _permutation(rng, n)
    edges = [(label[u], label[v]) for u, v in edges]
    _scramble(rng, edges)
    return GraphFile("".join(f"{u} {v}\n" for u, v in edges))


def _sparse_powerlaw(rng: random.Random) -> GraphFile:
    """Barabasi-Albert attachment plus the noise real SNAP files carry."""
    n, k = SPARSE_N, SPARSE_ATTACH
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    ends = [x for e in edges for x in e]  # each vertex once per incident edge
    for t in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(ends[_randbelow(rng, len(ends))])
        for u in sorted(targets):
            edges.append((u, t))
            ends += (u, t)
    m = len(edges)
    # duplicates (half of them reversed by _scramble) and self-loops
    edges += [edges[_randbelow(rng, m)] for _ in range(m // 50)]
    edges += [(v, v) for v in (_randbelow(rng, n) for _ in range(n // 200))]
    perm = _permutation(rng, n)
    label = [1_000_003 + 7_919 * perm[v] for v in range(n)]  # large, non-dense
    edges = [(label[u], label[v]) for u, v in edges]
    _scramble(rng, edges)
    header = (
        "# Undirected graph: perfbench sparse-powerlaw\n"
        f"# Nodes: {n} Edges: {len(edges)}\n"
        "# FromNodeId\tToNodeId\n"
    )
    return GraphFile(header + "".join(f"{u}\t{v}\n" for u, v in edges))


def _list_moonmoser(rng: random.Random) -> GraphFile:
    n = 3 * MOONMOSER_K
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3]
    label = _permutation(rng, n)
    part_of_label = {label[v]: v // 3 for v in range(n)}
    edges = [(label[u], label[v]) for u, v in edges]
    _scramble(rng, edges)
    ids = _dense_ids(edges)
    dense_part = [0] * len(ids)
    for lab, dense in ids.items():
        dense_part[dense] = part_of_label[lab]
    return GraphFile("".join(f"{u} {v}\n" for u, v in edges), dense_part)


_GENERATORS = {
    "dense-er": _dense_er,
    "sparse-powerlaw": _sparse_powerlaw,
    "list-moonmoser": _list_moonmoser,
}


def generate(name: str, seed: int, path: Path) -> GraphFile:
    """Generate workload `name` from `seed` and write it to `path`."""
    gf = _GENERATORS[name](random.Random(f"{name}/{seed}"))
    path.write_text(gf.text)
    return gf


def timed_setup(name: str, seed: int, path: Path, expect: str | None = None) -> tuple[GraphFile, float]:
    """Generate and write workload `name` once; return its file and the time.

    With `expect`, the written text must equal it: a seed names one file.
    """
    t0 = time.perf_counter()
    gf = generate(name, seed, path)
    seconds = time.perf_counter() - t0
    if expect is not None and gf.text != expect:
        raise RuntimeError(f"{name}: seed {seed} generated two different files")
    return gf, seconds
