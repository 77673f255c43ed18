"""End-to-end runs of ``run.py`` with two timed operations per workload."""

import json
import shutil
import subprocess
import sys

import pytest

import metrics

RUN = metrics.ROOT / "perf" / "run.py"


def _run(*args, cwd=metrics.ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_two_ops_of_every_workload(tmp_path, trace):
    out = tmp_path / "report.json"
    process = _run("--seed", "0", "--ops", "2", "--trace", trace, "--out", str(out))
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    benchmark = metrics.load_benchmark()
    wanted = [m["name"] for m in benchmark["per_layer" if trace == "1" else "end_to_end"]]
    names = [w["name"] for w in benchmark["workloads"]]
    assert set(result["metrics"]) == {f"{w}/{m}" for w in names for m in wanted}
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), metric
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == names
    if trace == "1":
        assert (tmp_path / "paper-dos-seed0-chrome.json").is_file()
        layer = {w: report["workloads"][w]["runs"][0] for w in names}
        assert layer["paper-dos"]["sparse.share"] > 0.5
        assert layer["refine-stream"]["serve.cache.hit_ratio"] == 0.0
        assert layer["cluster-faults"]["cluster.useful_vector_ratio"] <= 1.0
    else:
        runs = {w: report["workloads"][w]["runs"][0] for w in names}
        assert runs["paper-dos"]["numpy_op_s_p50"] > 0
        assert runs["gateway-burst"]["modeled_goodput_ratio"] > 0
        assert all(run["failed_ratio"] == 0 for run in runs.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(metrics.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(metrics.ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("out"))
    process = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "paper-dos", "--seed", "0",
         "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""
