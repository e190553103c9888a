"""Spread of benchmark results over seeds.

    python3 bench/summary.py bench/results/doubling-seed*-trace0.json

For each end-to-end metric in the given result files: the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the inter-quartile
spread as a share of the median, beside the metric's bound in
BENCHMARK.json; plus the share of failed units.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths) -> int:
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    results = [json.loads(Path(p).read_text()) for p in paths]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{len(results)} runs, {attempted} units attempted, {failed} failed, "
          f"correct in all: {all(r['correct'] for r in results)}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<12} median {med:.5g}  quartiles {q1:.5g} .. {q3:.5g}  "
              f"spread {(q3 - q1) / med:.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
