import json

import pytest

import compare
import metrics

SPECS = metrics.metric_specs(metrics.load_benchmark())
LOWER = {"name": "latency", "unit": "s", "better": "lower", "bound": 0.1}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}


def verdict(metric, base, new):
    spec = metric if isinstance(metric, dict) else SPECS[metric]
    return compare.verdict(spec, base, new)[0]


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([1.00, 1.01, 0.99], [1.05, 1.04, 1.06], "same"),
        ([1.00, 1.01, 0.99], [1.15, 1.14, 1.16], "worse"),
        ([1.00, 1.01, 0.99], [0.85, 0.86, 0.84], "better"),
        ([1.0, 1.3, 0.7], [1.0, 1.2, 0.8], "unresolved"),
        ([1.0, 1.3, 0.7], [2.0, 2.1, 1.9], "worse"),
        ([1.0, 1.3, 0.7], [0.3, 0.2, 0.25], "better"),
    ],
)
def test_relative_bound_of_a_lower_is_better_metric(base, new, expected):
    assert verdict(LOWER, base, new) == expected


def test_higher_is_better_direction():
    assert verdict(HIGHER, [10.0], [8.5]) == "worse"
    assert verdict(HIGHER, [10.0], [11.5]) == "better"
    assert verdict(HIGHER, [10.0], [9.5]) == "same"


def test_setup_time_needs_both_the_share_and_the_absolute_floor():
    assert verdict("setup_s", [0.5], [0.70]) == "same"  # +40% but only +0.20 s
    assert verdict("setup_s", [0.5], [0.80]) == "worse"  # +60% and +0.30 s
    assert verdict("setup_s", [2.0], [2.40]) == "same"  # +0.40 s but only +20%
    assert verdict("setup_s", [2.0], [2.60]) == "worse"


def test_exact_metrics_must_not_move():
    assert verdict("modeled_s", [0.19686271350419768], [0.19686271350419768]) == "same"
    assert verdict("modeled_s", [0.19686271350419768], [0.1968628]) == "worse"
    assert verdict("failed_ratio", [0.0, 0.0], [0.0, 0.0]) == "same"
    assert verdict("failed_ratio", [0.0], [0.01]) == "worse"


def _report(runs_by_workload):
    return {"workloads": {w: {"runs": runs} for w, runs in runs_by_workload.items()}}


def test_compare_rows_skip_unbounded_and_absent_metrics(tmp_path, capsys):
    base = _report({
        "paper-dos": [{"op_s_p50": 0.25, "gen_s": 0.001, "numpy_op_s_p50": 0.13}],
        "cluster-faults": [{"op_s_p50": 0.19, "modeled_s": 0.38}],
    })
    new = _report({
        "paper-dos": [{"op_s_p50": 0.25, "gen_s": 0.5}],
        "cluster-faults": [{"op_s_p50": 0.30, "modeled_s": 0.38}],
    })
    rows = compare.compare(base, new, SPECS)
    assert [m for m, _, _ in rows["paper-dos"]] == ["op_s_p50"]
    assert dict((m, v) for m, v, _ in rows["cluster-faults"]) == {
        "op_s_p50": "worse",
        "modeled_s": "same",
    }
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, report in zip(paths, (base, new)):
        path.write_text(json.dumps(report))
    assert compare.main([str(p) for p in paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["paper-dos", "same"]
    assert lines[1].split()[:2] == ["cluster-faults", "worse"]
