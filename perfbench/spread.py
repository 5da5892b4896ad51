#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads dense-er,sparse-powerlaw --seeds 1-10

For each workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of
that median, next to the metric's bound from BENCHMARK.json. Workloads
alternate run by run, so slow drift of the host spreads over all of them.
Raw results are appended to perfbench/_work/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    log = ROOT / "perfbench" / "_work" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in _seeds(args.seeds):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs[w].append(result)
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} {summary}", flush=True)

    print(f"\n{'workload':<17}{'metric':<18}{'median':>10}{'iqr/med':>9}{'bound':>7}")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            print(f"{w:<17}{m['name']:<18}{med:>10.4g}{(q3 - q1) / med:>9.3f}{m['bound']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
