"""Integration tests against the committed perf baseline BENCH_PR4.json.

This is the CI gate itself: re-record the baseline workload and compare.
The negative test inflates one span's modeled cost beyond tolerance and
asserts the gate catches it — proving the pass is meaningful.
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import baseline_record
from repro.obs import RunRecord, compare_records, load_run_record
from repro.obs.workloads import gateway_run, serve_prefix_run, smoke_run

BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_PR4.json"
PREFIX_BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_PR7.json"
GATEWAY_BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_PR8.json"


@pytest.fixture(scope="module")
def baseline():
    return load_run_record(BASELINE_PATH)


@pytest.fixture(scope="module")
def current():
    return baseline_record()


class TestCommittedBaseline:
    def test_baseline_file_is_canonical(self, baseline):
        """The committed file must be byte-identical to its own re-export."""
        text = BASELINE_PATH.read_text(encoding="ascii")
        assert text == baseline.to_json() + "\n"

    def test_compare_passes(self, baseline, current):
        result = compare_records(baseline, current)
        assert result.ok, result.summary()

    def test_recorded_fingerprint_matches_committed(self, baseline, current):
        """The workload is deterministic, so a re-record is not merely
        within tolerance but identical."""
        assert current.fingerprint() == baseline.fingerprint()

    def test_smoke_subset_passes_with_bench_ignored(self, baseline):
        result = compare_records(baseline, smoke_run(), ignore=("bench.*",))
        assert result.ok, result.summary()

    def test_baseline_covers_the_three_subsystems(self, baseline):
        labels = {span.label for root in baseline.spans for span in root.walk()}
        assert {"workload.gpu", "workload.cluster", "workload.serve"} <= labels
        assert {"gpu.pipeline", "cluster.run", "serve.flush"} <= labels
        gauges = baseline.metrics.gauges
        assert any(name.startswith("bench.fig5.") for name in gauges)
        assert any(name.startswith("bench.fig7.") for name in gauges)
        assert any(name.startswith("bench.fig8.") for name in gauges)


class TestPrefixCacheBaseline:
    """BENCH_PR7.json: the prefix-vs-exact cache A/B gate."""

    @pytest.fixture(scope="class")
    def prefix_baseline(self):
        return load_run_record(PREFIX_BASELINE_PATH)

    @pytest.fixture(scope="class")
    def prefix_current(self):
        return serve_prefix_run()

    def test_baseline_file_is_canonical(self, prefix_baseline):
        text = PREFIX_BASELINE_PATH.read_text(encoding="ascii")
        assert text == prefix_baseline.to_json() + "\n"

    def test_recorded_fingerprint_matches_committed(
        self, prefix_baseline, prefix_current
    ):
        assert prefix_current.fingerprint() == prefix_baseline.fingerprint()

    def test_prefix_hit_rate_strictly_beats_exact(self, prefix_baseline):
        gauges = prefix_baseline.metrics.gauges
        assert (
            gauges["serve_prefix.cache_hit_rate"]
            > gauges["serve_exact.cache_hit_rate"]
        )
        assert gauges["serve_ab.hit_rate_advantage"] > 0.0
        # The prefix cache also wins on modeled throughput, not just hits.
        assert (
            gauges["serve_prefix.modeled_speedup"]
            > gauges["serve_exact.modeled_speedup"]
        )

    def test_compare_passes(self, prefix_baseline, prefix_current):
        result = compare_records(prefix_baseline, prefix_current)
        assert result.ok, result.summary()

    def test_hit_rate_drop_fails_the_gate(self, prefix_baseline, prefix_current):
        """Negative test: the gate is directional — a lower hit rate must
        fail even though every modeled cost is unchanged or better."""
        degraded = RunRecord.from_dict(prefix_current.to_dict())
        degraded.metrics.gauges["serve_prefix.cache_hit_rate"] = (
            prefix_baseline.metrics.gauges["serve_exact.cache_hit_rate"] * 0.5
        )
        result = compare_records(prefix_baseline, degraded)
        assert not result.ok
        assert "serve_prefix.cache_hit_rate" in {
            delta.label for delta in result.failures
        }


class TestGatewayBaseline:
    """BENCH_PR8.json: the gateway-vs-FIFO record, pinned exactly.

    The CI gate compares this record within bands; the fingerprint pins
    every gateway span and counter, since the replay is deterministic.
    """

    @pytest.fixture(scope="class")
    def gateway_baseline(self):
        return load_run_record(GATEWAY_BASELINE_PATH)

    def test_baseline_file_is_canonical(self, gateway_baseline):
        text = GATEWAY_BASELINE_PATH.read_text(encoding="ascii")
        assert text == gateway_baseline.to_json() + "\n"

    def test_recorded_fingerprint_matches_committed(self, gateway_baseline):
        assert gateway_run().fingerprint() == gateway_baseline.fingerprint()


class TestNegativeGate:
    def test_inflated_span_cost_fails(self, baseline):
        """Required negative test: inflate gpu.moments beyond 10% and the
        gate must fail on exactly that label."""
        data = json.loads(BASELINE_PATH.read_text(encoding="ascii"))

        def inflate(span):
            if span["label"] == "gpu.moments":
                span["end"] += (span["end"] - span["start"]) * 0.25
            for child in span["children"]:
                inflate(child)

        for span in data["spans"]:
            inflate(span)
        inflated = RunRecord.from_dict(data)
        result = compare_records(baseline, inflated, tolerance=0.10)
        assert not result.ok
        assert "gpu.moments" in {delta.label for delta in result.failures}

    def test_vanished_span_fails(self, baseline, current):
        pruned = RunRecord.from_dict(current.to_dict())
        for root in pruned.spans:
            for span in root.walk():
                span.children = [
                    child for child in span.children if child.label != "serve.batch"
                ]
        result = compare_records(baseline, pruned)
        assert not result.ok
        assert any(delta.status == "missing" for delta in result.failures)
