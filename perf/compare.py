"""Compare two benchmark reports metric by metric.

    python perf/compare.py BASE.json NEW.json

Both files are ``run.py --out`` reports (use ``--repeat`` for several
runs per workload).  Every (metric, workload) pair with a bound in
``BENCHMARK.json`` or in ``metrics.EXTRA_METRICS`` gets a verdict:

``same``        the medians differ by no more than the bound;
``better``      NEW's median beats BASE's by more than the bound;
``worse``       NEW's median is worse than BASE's by more than the bound;
``unresolved``  the spread between quartiles of either side's runs is
                wider than the bound, and neither side's runs all beat
                the other's.

One row per workload lists its worst verdict and then each metric's.
The exit code is 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import metrics

ORDER = ("same", "better", "unresolved", "worse")


def spread(values) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def threshold(spec: dict, base_median: float) -> float:
    """How far (in the metric's unit) the median may move and stay ``same``."""
    bound = spec["bound"] if spec.get("absolute") else spec["bound"] * abs(base_median)
    return max(bound, metrics.ABSOLUTE_FLOORS.get(spec["name"], 0.0))


def verdict(spec: dict, base: list[float], new: list[float]) -> tuple[str, float]:
    """The verdict on one metric, and NEW's relative change (+ is worse)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median)
    change = worse_by / abs(base_median) if base_median else 0.0
    limit = threshold(spec, base_median)
    if max(spread(base), spread(new)) > limit:
        # Signed so that larger is worse for either direction.
        base_worse = [sign * v for v in base]
        new_worse = [sign * v for v in new]
        if max(new_worse) < min(base_worse):
            return "better", change
        if min(new_worse) > max(base_worse):
            return "worse", change
        return "unresolved", change
    if worse_by > limit:
        return "worse", change
    if -worse_by > limit:
        return "better", change
    return "same", change


def compare(base: dict, new: dict, specs: dict) -> dict[str, list[tuple[str, str, float]]]:
    """``{workload: [(metric, verdict, change), ...]}`` for every gated pair."""
    rows = {}
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        rows[workload] = []
        for metric in base_entry["runs"][0]:
            spec = specs.get(metric)
            if spec is None or spec.get("bound") is None or metric not in new_entry["runs"][0]:
                continue
            values = [[run[metric] for run in entry["runs"]] for entry in (base_entry, new_entry)]
            rows[workload].append((metric, *verdict(spec, *values)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    specs = metrics.metric_specs(metrics.load_benchmark())
    rows = compare(json.loads(args.base.read_text()), json.loads(args.new.read_text()), specs)
    failing = False
    for workload, results in rows.items():
        worst = max((v for _, v, _ in results), key=ORDER.index, default="same")
        failing |= worst in ("worse", "unresolved")
        cells = "  ".join(f"{m}={v}({c:+.1%})" for m, v, c in results)
        print(f"{workload:<15} {worst:<11} {cells}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
