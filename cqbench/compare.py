"""Summarise and compare stored benchmark results.

    python3 cqbench/compare.py BASE [NEW]

BASE and NEW are directories (or single files) of results written by run.py
under .bench_out/results/. For each workload and end-to-end metric the tool
prints the median over the runs and the spread, the distance between the
first and third quartiles as a share of the median, against the metric's
bound in BENCHMARK.json. With NEW it also prints each median's change from
BASE and marks a change worse than the bound. Results measured on different
backends (numba against the NumPy fallback) are refused: every number moves
with the backend.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(target: str) -> list[dict]:
    p = Path(target)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def by_metric(results) -> dict:
    """(workload, metric) -> list of values, untraced runs only."""
    out = defaultdict(list)
    for r in results:
        if r["stamp"]["trace"] == 0:
            for name, m in r["result"]["metrics"].items():
                out[(r["stamp"]["workload"], name)].append(m["value"])
    return out


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(a) for a in argv]
    backends = {r["stamp"]["backend"] for rs in sets for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base = by_metric(sets[0])
    new = by_metric(sets[1]) if len(sets) == 2 else {}
    worse = 0
    print(f"{'workload':<20} {'metric':<17} {'runs':>4} {'median':>12} {'spread':>7} "
          f"{'bound':>6}" + ("  change  verdict" if new else ""))
    for (workload, name), values in sorted(base.items()):
        bound, better = bounds.get(name, (float("nan"), "lower"))
        med = statistics.median(values)
        sp = spread(values) if len(values) >= 2 else float("nan")
        line = f"{workload:<20} {name:<17} {len(values):>4} {med:>12.6g} {sp:>7.3f} {bound:>6}"
        if (workload, name) in new:
            nmed = statistics.median(new[(workload, name)])
            change = (nmed - med) / med if med else 0.0
            bad = change > bound if better == "lower" else change < -bound
            worse += bad
            line += f"  {change:+.3f}  {'WORSE' if bad else 'ok'}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
