"""Metric definitions and the statistics the benchmark reports.

The names, units, directions and bounds of the gated metrics live in
``BENCHMARK.json`` at the repository root.  :data:`EXTRA_METRICS` adds
the end-to-end metrics that only some workloads have or that must not
move at all; ``compare.py`` gates them too.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics kept out of BENCHMARK.json.  The tail, the mean
#: and the 20-sample numpy median follow the shared host's slow spells;
#: their bounds are their measured spread (README.md), capped at 25%,
#: which is wider than the steadiness BENCHMARK.json asks of a gated metric.
#: The others are reported on some workloads only, or are exactly 0 or
#: exactly reproducible, which a relative bound cannot express.
#: ``absolute`` bounds are in the metric's unit; the others are shares
#: of the baseline median.
EXTRA_METRICS = {
    "op_s_p90": {"unit": "s", "better": "lower", "bound": 0.25},
    "ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.20},
    "numpy_op_s_p50": {"unit": "s", "better": "lower", "bound": 0.12},
    "failed_ratio": {"unit": "ratio", "better": "lower", "bound": 0.0, "absolute": True},
    "modeled_s": {"unit": "modeled_s", "better": "lower", "bound": 1e-9},
    "modeled_goodput_ratio": {"unit": "ratio", "better": "higher", "bound": 1e-9},
    "modeled_p99_s": {"unit": "modeled_s", "better": "lower", "bound": 1e-9},
    "gen_s": {"unit": "s", "better": "lower", "bound": None},
}

#: A regression must also exceed this many units (set-up jitter floor).
ABSOLUTE_FLOORS = {"setup_s": 0.25}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(benchmark: dict) -> dict[str, dict]:
    """Every metric name mapped to its unit, direction and bound."""
    specs = {m["name"]: dict(m) for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    specs.update({name: {"name": name, **spec} for name, spec in EXTRA_METRICS.items()})
    return specs


def nearest_rank(values, percent: float) -> float:
    """The nearest-rank percentile: the smallest sample with ``percent``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("nearest_rank of no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(result: dict, setup_samples: list[float]) -> dict[str, float]:
    """End-to-end metrics of one untraced worker result."""
    op_s = result["op_s"]
    observed = result["observations"]
    out = {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": nearest_rank(op_s, 50),
        "op_s_p90": nearest_rank(op_s, 90),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_ratio": result["failed"] / result["attempted"],
        "gen_s": result["gen_s"],
    }
    if result["reference_op_s"]:
        out["numpy_op_s_p50"] = nearest_rank(result["reference_op_s"], 50)
    if "goodput_ratio" in observed:
        out["modeled_goodput_ratio"] = statistics.fmean(observed["goodput_ratio"])
        out["modeled_p99_s"] = statistics.median(observed["p99_s"])
    elif "modeled_s" in observed:
        out["modeled_s"] = statistics.fmean(observed["modeled_s"])
    return out


def per_layer(result: dict) -> dict[str, float]:
    """Per-layer metrics of a traced worker result.

    The worker traced every other operation; the ratio of the median
    traced and untraced operation times, minus one, is the tracing
    overhead.
    """
    totals = {key: sum(values) for key, values in result["observations"].items()}
    get = totals.get
    out = dict(result["layers"])
    out["serve.cache.hit_ratio"] = _ratio(
        get("cache_hits", 0), get("cache_hits", 0) + get("cache_misses", 0)
    )
    out["serve.cache.extend_ratio"] = _ratio(get("cache_extensions", 0), get("cache_misses", 0))
    out["serve.coalesce_ratio"] = _ratio(get("coalesced", 0), get("requests", 0))
    out["tune.cache_hit_ratio"] = _ratio(get("tune_hits", 0), get("tune_choices", 0))
    out["cluster.recovery_share"] = _ratio(get("recovery_s", 0.0), get("modeled_s", 0.0))
    out["trace.overhead_ratio"] = (
        nearest_rank(result["traced_op_s"], 50) / nearest_rank(result["op_s"], 50) - 1.0
    )
    return out
