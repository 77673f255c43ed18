import re

import pytest

import metrics
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_nearest_rank_picks_a_sample():
    values = list(range(1, 11))
    assert metrics.nearest_rank(values, 50) == 5
    assert metrics.nearest_rank(values, 90) == 9
    assert metrics.nearest_rank(values, 100) == 10
    assert metrics.nearest_rank(reversed(values), 10) == 1
    assert metrics.nearest_rank([7.5], 90) == 7.5


def test_nearest_rank_p90_leaves_ten_samples_beyond_at_one_hundred():
    values = [float(v) for v in range(100)]
    p90 = metrics.nearest_rank(values, 90)
    assert p90 == 89.0
    assert sum(v > p90 for v in values) == 10


def test_nearest_rank_rejects_no_samples():
    with pytest.raises(ValueError):
        metrics.nearest_rank([], 50)


def test_benchmark_json_names_units_and_bounds():
    benchmark = metrics.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert not set(metrics.EXTRA_METRICS) & set(names)
