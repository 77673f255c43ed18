"""Unit tests for the fault-tolerant cluster driver.

Covers the fault model (repro.cluster.faults), the retry policy
(repro.cluster.policy), and the resilient execution path of
MultiGpuKPM, including the headline guarantee: a faulty run recovers
the *bit-identical* moments of a fault-free run while charging its
overhead to the "recovery"/"rebalance" phases.
"""

import numpy as np
import pytest

from repro.cluster import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    MultiGpuKPM,
    RetryPolicy,
)
from repro.errors import FaultError, ValidationError
from repro.gpukpm import CheckpointChunk, GpuKPM
from repro.kpm import rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture
def scaled_cube():
    h = tight_binding_hamiltonian(cubic(4), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


class TestFaultEvent:
    def test_kinds_constant(self):
        assert FAULT_KINDS == ("crash", "straggler", "transfer")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault kind"):
            FaultEvent("meltdown", 0)

    def test_negative_node_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent("crash", -1)

    def test_fast_straggler_rejected(self):
        with pytest.raises(ValidationError, match="slowdown"):
            FaultEvent("straggler", 0, slowdown=0.5)

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent("transfer", 0, count=0)

    def test_frozen(self):
        event = FaultEvent("crash", 1, completed_chunks=2)
        with pytest.raises(AttributeError):
            event.node = 3


class TestFaultSchedule:
    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValidationError, match="one crash per node"):
            FaultSchedule([FaultEvent("crash", 0), FaultEvent("crash", 0)])

    def test_duplicate_straggler_rejected(self):
        with pytest.raises(ValidationError, match="straggler"):
            FaultSchedule(
                [FaultEvent("straggler", 1), FaultEvent("straggler", 1)]
            )

    def test_duplicate_transfer_rejected(self):
        with pytest.raises(ValidationError, match="transfer"):
            FaultSchedule([FaultEvent("transfer", 2), FaultEvent("transfer", 2)])

    def test_non_event_rejected(self):
        with pytest.raises(ValidationError, match="FaultEvent"):
            FaultSchedule(["crash"])

    def test_accessors(self):
        crash = FaultEvent("crash", 0, round=1)
        slow = FaultEvent("straggler", 1, slowdown=3.0)
        xfer = FaultEvent("transfer", 2, count=4)
        schedule = FaultSchedule([crash, slow, xfer])
        assert schedule.crash_for(0, 1) is crash
        assert schedule.crash_for(0, 0) is None
        assert schedule.straggler_for(1, 0) is slow
        assert schedule.straggler_for(1, 1) is None
        assert schedule.transfer_for(2) is xfer
        assert schedule.transfer_for(0) is None
        assert schedule.max_node() == 2
        assert len(schedule) == 3
        assert schedule.num_faults == 6  # transfer count expands

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.max_node() == -1
        assert schedule.num_faults == 0
        assert list(schedule) == []


class TestSample:
    def test_deterministic(self):
        a = FaultSchedule.sample(
            42, 8, crash_rate=0.4, straggler_rate=0.4, transfer_rate=0.4
        )
        b = FaultSchedule.sample(
            42, 8, crash_rate=0.4, straggler_rate=0.4, transfer_rate=0.4
        )
        assert a.events == b.events

    def test_seed_sensitivity(self):
        a = FaultSchedule.sample(1, 16, crash_rate=0.5)
        b = FaultSchedule.sample(2, 16, crash_rate=0.5)
        assert a.events != b.events

    def test_zero_rates_empty(self):
        assert len(FaultSchedule.sample(0, 8)) == 0

    def test_rate_validation(self):
        with pytest.raises(ValidationError, match="crash_rate"):
            FaultSchedule.sample(0, 4, crash_rate=1.5)

    def test_never_kills_whole_cluster(self):
        schedule = FaultSchedule.sample(0, 6, crash_rate=1.0)
        crashes = [e for e in schedule if e.kind == "crash"]
        assert len(crashes) == 5  # one node always spared


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValidationError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_geometric(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0)
        assert policy.backoff_seconds(0) == pytest.approx(1e-3)
        assert policy.backoff_seconds(3) == pytest.approx(8e-3)

    def test_budget_exhaustion_raises_fault_error(self):
        budget = RetryPolicy(max_retries=2).budget()
        budget.spend("a")
        budget.spend("b")
        assert budget.remaining == 0
        with pytest.raises(FaultError, match="retry budget exhausted"):
            budget.spend("c")

    def test_zero_budget(self):
        with pytest.raises(FaultError):
            RetryPolicy(max_retries=0).budget().spend("anything")


class TestResilientRun:
    def test_checkpointing_alone_is_bit_identical(self, scaled_cube, small_config):
        baseline, _ = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        chk, report = MultiGpuKPM(4, checkpoint_every=2).compute_moments(
            scaled_cube, small_config
        )
        assert np.array_equal(chk.mu, baseline.mu)
        assert np.array_equal(chk.per_realization, baseline.per_realization)
        assert report.breakdown["recovery"] == 0.0
        assert report.breakdown["rebalance"] == 0.0

    def test_crash_and_transfer_recover_bit_identical(
        self, scaled_cube, small_config
    ):
        # The PR's acceptance scenario: >=1 node crash plus >=1 transient
        # transfer fault must recover bit-identical moments with a
        # nonzero "recovery" phase.
        baseline, base_report = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        schedule = FaultSchedule(
            [
                FaultEvent("crash", 1, completed_chunks=1),
                FaultEvent("transfer", 2, count=2),
            ]
        )
        data, report = MultiGpuKPM(
            4, fault_schedule=schedule, checkpoint_every=2
        ).compute_moments(scaled_cube, small_config)
        assert np.array_equal(data.mu, baseline.mu)
        assert np.array_equal(data.per_realization, baseline.per_realization)
        assert report.breakdown["recovery"] > 0.0
        assert report.breakdown["rebalance"] > 0.0
        assert report.modeled_seconds > base_report.modeled_seconds

    def test_resilient_breakdown_keys_and_total(self, scaled_cube, small_config):
        schedule = FaultSchedule([FaultEvent("straggler", 0, slowdown=2.0)])
        _, report = MultiGpuKPM(2, fault_schedule=schedule).compute_moments(
            scaled_cube, small_config
        )
        assert set(report.breakdown) == {
            "broadcast",
            "compute",
            "rebalance",
            "recovery",
            "allreduce",
        }
        assert report.modeled_seconds == pytest.approx(
            sum(report.breakdown.values())
        )
        assert report.backend.endswith(",resilient)")

    def test_straggler_costs_time_not_correctness(self, scaled_cube, small_config):
        baseline, _ = MultiGpuKPM(2).compute_moments(scaled_cube, small_config)
        schedule = FaultSchedule([FaultEvent("straggler", 1, slowdown=3.0)])
        data, report = MultiGpuKPM(2, fault_schedule=schedule).compute_moments(
            scaled_cube, small_config
        )
        assert np.array_equal(data.mu, baseline.mu)
        assert report.breakdown["recovery"] > 0.0

    def test_sampled_campaign_recovers(self, scaled_cube, small_config):
        baseline, _ = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        schedule = FaultSchedule.sample(
            3, 4, crash_rate=0.3, straggler_rate=0.3, transfer_rate=0.3
        )
        assert schedule.num_faults > 0  # seed chosen to actually fault
        data, _ = MultiGpuKPM(
            4, fault_schedule=schedule, checkpoint_every=2
        ).compute_moments(scaled_cube, small_config)
        assert np.array_equal(data.mu, baseline.mu)

    def test_all_nodes_crashing_raises(self, scaled_cube, small_config):
        schedule = FaultSchedule(
            [FaultEvent("crash", n, completed_chunks=0) for n in range(2)]
        )
        with pytest.raises(FaultError, match="all cluster nodes crashed"):
            MultiGpuKPM(2, fault_schedule=schedule).compute_moments(scaled_cube, small_config)

    def test_rebalance_budget_exhaustion(self, scaled_cube, small_config):
        schedule = FaultSchedule([FaultEvent("crash", 0, completed_chunks=0)])
        driver = MultiGpuKPM(
            2, fault_schedule=schedule, policy=RetryPolicy(max_retries=0)
        )
        with pytest.raises(FaultError, match="rebalance round 1"):
            driver.compute_moments(scaled_cube, small_config)

    def test_retransmission_budget_exhaustion(self, scaled_cube, small_config):
        schedule = FaultSchedule([FaultEvent("transfer", 0, count=3)])
        driver = MultiGpuKPM(
            2, fault_schedule=schedule, policy=RetryPolicy(max_retries=2)
        )
        with pytest.raises(FaultError, match="retransmission"):
            driver.compute_moments(scaled_cube, small_config)

    def test_schedule_node_out_of_range(self, scaled_cube, small_config):
        schedule = FaultSchedule([FaultEvent("crash", 5)])
        with pytest.raises(ValidationError, match="references node 5"):
            MultiGpuKPM(2, fault_schedule=schedule).compute_moments(scaled_cube, small_config)

    def test_constructor_type_validation(self):
        with pytest.raises(ValidationError, match="FaultSchedule"):
            MultiGpuKPM(2, fault_schedule="crash")
        with pytest.raises(ValidationError, match="RetryPolicy"):
            MultiGpuKPM(2, policy="retry")
        with pytest.raises(ValidationError):
            MultiGpuKPM(2, checkpoint_every=0)

    def test_constructor_validates_device_settings(self):
        # Checked when the engine is built, not on its first run: a
        # serving pool would otherwise fail every request it routes here.
        with pytest.raises(ValidationError, match="spmv_format must be one of"):
            MultiGpuKPM(2, spmv_format="bogus")
        with pytest.raises(ValidationError, match="GpuSpec"):
            MultiGpuKPM(2, spec="x")

    def test_resilient_property(self):
        assert not MultiGpuKPM(2).resilient
        assert MultiGpuKPM(2, checkpoint_every=4).resilient
        assert MultiGpuKPM(2, fault_schedule=FaultSchedule()).resilient


class TestChunkedPartition:
    def test_chunked_rows_bit_identical(self, scaled_cube, small_config):
        runner = GpuKPM()
        plain, _, _ = runner.run_partition(
            scaled_cube, small_config, first_vector=3, num_vectors=7
        )
        chunks = []
        chunked, chunked_mu, _ = runner.run_partition(
            scaled_cube,
            small_config,
            first_vector=3,
            num_vectors=7,
            checkpoint_every=2,
            on_chunk=chunks.append,
        )
        assert np.array_equal(chunked, plain)
        assert chunked_mu is None  # checkpoint mode leaves the mean to its caller
        # 7 vectors in chunks of 2 -> sizes 2, 2, 2, 1 starting at 3.
        assert [c.first_vector for c in chunks] == [3, 5, 7, 9]
        assert [c.num_vectors for c in chunks] == [2, 2, 2, 1]
        assert all(isinstance(c, CheckpointChunk) for c in chunks)
        reassembled = np.concatenate([c.rows for c in chunks], axis=0)
        assert np.array_equal(reassembled, plain)

    def test_chunking_costs_extra_downloads(self, scaled_cube, small_config):
        runner = GpuKPM()
        runner.run_partition(
            scaled_cube, small_config, first_vector=0, num_vectors=8
        )
        plain_seconds = runner.last_device.modeled_seconds
        runner.run_partition(
            scaled_cube,
            small_config,
            first_vector=0,
            num_vectors=8,
            checkpoint_every=1,
        )
        assert runner.last_device.modeled_seconds > plain_seconds

    def test_chunk_seconds_sum_below_device_total(self, scaled_cube, small_config):
        runner = GpuKPM()
        chunks = []
        runner.run_partition(
            scaled_cube,
            small_config,
            first_vector=0,
            num_vectors=8,
            checkpoint_every=2,
            on_chunk=chunks.append,
        )
        chunk_total = sum(c.modeled_seconds for c in chunks)
        assert 0.0 < chunk_total < runner.last_device.modeled_seconds
