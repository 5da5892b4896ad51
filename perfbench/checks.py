"""Correctness gate: every timed result is checked before it counts.

An operation's outcome is its clique count and size histogram. Outcomes
are compared with the `ttt` reference of the same run, with every other
engine, and with the deterministic counters recorded for the same seed by
earlier runs in this checkout (and, for the two named seeds, with the
values committed in `expected.json`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

EXPECTED = Path(__file__).with_name("expected.json")


def outcome(count: int, hist: Mapping[Any, int]) -> dict[str, Any]:
    return {
        "clique_count": int(count),
        "histogram": {int(k): int(v) for k, v in sorted(hist.items(), key=lambda kv: int(kv[0]))},
    }


def moonmoser_digest(dense_part: list[int], k: int) -> bytes:
    """SHA-256 of the exact expected listing, its lines sorted.

    The family is the 3^k transversals of the k parts, one vertex from
    each; a line is its clique's dense ids, ascending, space-separated,
    as WriterSink writes them. Lines are built from bitmasks, 12 ids at a
    time, because formatting 3^k cliques one by one takes seconds.
    """
    n = len(dense_part)
    masks = [0]
    for p in range(k):
        bits = [1 << v for v in range(n) if dense_part[v] == p]
        masks = [m | b for m in masks for b in bits]
    chunks = [
        [" ".join(str(base + i) for i in range(12) if x >> i & 1) for x in range(1 << 12)]
        for base in range(0, n, 12)
    ]
    lines = [
        " ".join(filter(None, (tab[m >> (12 * j) & 4095] for j, tab in enumerate(chunks))))
        for m in masks
    ]
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).digest()


def check_listing(path: Path, digest: bytes, k: int) -> str | None:
    """None if the listing at `path` is exactly the expected one, else why not."""
    with open(path) as f:
        lines = f.read().splitlines()
    if len(lines) != 3**k:
        return f"listing has {len(lines)} lines, expected {3**k}"
    lines.sort()
    if hashlib.sha256("\n".join(lines).encode()).digest() != digest:
        return "listing is not the Moon-Moser family: a line is malformed, repeated or wrong"
    return None


def diff_counters(old: Mapping[str, Any], new: Mapping[str, Any]) -> list[str]:
    """Keys present in both whose values disagree."""
    return [
        f"{key}: {old[key]!r} != {new[key]!r}"
        for key in sorted(old.keys() & new.keys())
        if old[key] != new[key]
    ]


def _jsonable(counters: Mapping[str, Any]) -> dict[str, Any]:
    # JSON object keys are strings; round-trip so comparisons are like for like
    return json.loads(json.dumps(counters))


def check_counters(
    counters: Mapping[str, Any], workload: str, seed: int, state_dir: Path
) -> list[str]:
    """Compare with the committed and the recorded counters for this seed.

    Records the union of the counters seen so far for later runs.
    """
    counters = _jsonable(counters)
    problems: list[str] = []
    committed = json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))
    if committed is not None:
        problems += [f"expected.json {p}" for p in diff_counters(committed, counters)]
    path = state_dir / f"counters-{workload}-{seed}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    problems += [f"earlier run {p}" for p in diff_counters(recorded, counters)]
    if not problems:
        path.write_text(json.dumps({**recorded, **counters}, indent=1, sort_keys=True))
    return problems
