"""Unit tests for repro.cluster (multi-GPU extension)."""

import numpy as np
import pytest

from repro.cluster import (
    GIGABIT_ETHERNET,
    INFINIBAND_QDR,
    InterconnectSpec,
    MultiGpuKPM,
    estimate_multigpu_seconds,
    multigpu_breakdown,
)
from repro.cluster.multigpu import _partition
from repro.errors import ValidationError
from repro.gpu import TESLA_C2050
from repro.gpukpm import GpuKPM, spmv_model_for
from repro.kpm import KPMConfig, rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture
def scaled_cube():
    h = tight_binding_hamiltonian(cubic(4), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


class TestInterconnect:
    def test_message_seconds(self):
        link = InterconnectSpec("test", 1e9, 1e-6)
        assert link.message_seconds(1e9) == pytest.approx(1.0 + 1e-6)

    def test_presets_ordering(self):
        big = 100 * 1024 * 1024
        assert INFINIBAND_QDR.message_seconds(big) < GIGABIT_ETHERNET.message_seconds(big)

    def test_validation(self):
        with pytest.raises(ValidationError):
            InterconnectSpec("bad", 0.0, 0.0)


class TestPartition:
    def test_covers_range(self):
        slices = _partition(10, 3)
        assert slices == [(0, 4), (4, 3), (7, 3)]

    def test_even_split(self):
        assert _partition(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]


class TestFunctional:
    def test_moments_match_single_device(self, scaled_cube, small_config):
        single, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        multi, _ = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        np.testing.assert_allclose(multi.mu, single.mu, atol=1e-14)
        np.testing.assert_allclose(
            multi.per_realization, single.per_realization, atol=1e-14
        )

    def test_uneven_partition_still_matches(self, scaled_cube, small_config):
        # 16 vectors over 3 devices -> 6/5/5.
        single, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        multi, _ = MultiGpuKPM(3).compute_moments(scaled_cube, small_config)
        np.testing.assert_allclose(multi.mu, single.mu, atol=1e-14)

    def test_report_breakdown(self, scaled_cube, small_config):
        _, report = MultiGpuKPM(2).compute_moments(scaled_cube, small_config)
        assert set(report.breakdown) == {"broadcast", "compute", "allreduce"}
        assert report.modeled_seconds == pytest.approx(sum(report.breakdown.values()))

    def test_single_device_no_communication(self, scaled_cube, small_config):
        _, report = MultiGpuKPM(1).compute_moments(scaled_cube, small_config)
        assert report.breakdown["broadcast"] == 0.0
        assert report.breakdown["allreduce"] == 0.0

    def test_too_many_devices_rejected(self, scaled_cube, small_config):
        with pytest.raises(ValidationError, match="exceeds"):
            MultiGpuKPM(1000).compute_moments(scaled_cube, small_config)

    def test_modeled_matches_estimate(self, scaled_cube, small_config):
        _, report = MultiGpuKPM(3).compute_moments(scaled_cube, small_config)
        estimate = estimate_multigpu_seconds(
            TESLA_C2050,
            scaled_cube.shape[0],
            small_config,
            3,
            spmv=spmv_model_for(scaled_cube, "csr"),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_operator_is_profiled_at_most_once(
        self, scaled_cube, small_config, profile_scans
    ):
        # The driver and every node's run_partition resolve the SpMV
        # model of the same unchanged operator: one scan between them.
        first, _ = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        assert len(profile_scans) <= 1
        del profile_scans[:]
        again, _ = MultiGpuKPM(4).compute_moments(scaled_cube, small_config)
        assert profile_scans == []
        assert again.mu.tobytes() == first.mu.tobytes()


class TestEstimator:
    def test_breakdown_keys(self):
        config = KPMConfig(num_random_vectors=64, num_realizations=1)
        breakdown = multigpu_breakdown(TESLA_C2050, 256, config, 4)
        assert set(breakdown) == {"broadcast", "compute", "allreduce"}

    def test_communication_grows_with_devices(self):
        config = KPMConfig(num_random_vectors=64, num_realizations=1)
        b2 = multigpu_breakdown(TESLA_C2050, 256, config, 2)
        b8 = multigpu_breakdown(TESLA_C2050, 256, config, 8)
        assert b8["broadcast"] > b2["broadcast"]

    def test_slow_interconnect_costs_more(self):
        config = KPMConfig(num_random_vectors=64, num_realizations=1)
        fast = estimate_multigpu_seconds(
            TESLA_C2050, 1024, config, 4, interconnect=INFINIBAND_QDR
        )
        slow = estimate_multigpu_seconds(
            TESLA_C2050, 1024, config, 4, interconnect=GIGABIT_ETHERNET
        )
        assert slow > fast

    def test_compute_shrinks_with_devices(self):
        config = KPMConfig(
            num_random_vectors=1792, num_realizations=1, num_moments=256, block_size=32
        )
        b1 = multigpu_breakdown(TESLA_C2050, 1000, config, 1)
        b8 = multigpu_breakdown(TESLA_C2050, 1000, config, 8)
        assert b8["compute"] < b1["compute"]

    def test_device_count_validation(self):
        config = KPMConfig(num_random_vectors=4, num_realizations=1)
        with pytest.raises(ValidationError):
            multigpu_breakdown(TESLA_C2050, 64, config, 5)
