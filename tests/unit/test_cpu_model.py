"""Unit tests for repro.cpu (spec, cost model, backend)."""

import numpy as np
import pytest

from repro.cpu import (
    CORE_I7_930,
    CacheLevel,
    CpuModelEngine,
    CpuSpec,
    bandwidth_for_footprint,
    cpu_kpm_breakdown,
    estimate_cpu_kpm_seconds,
    phase_time,
    tiny_test_cpu,
)
from repro.errors import ValidationError
from repro.kpm import KPMConfig, rescale_operator, stochastic_moments
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sparse import StorageCost

from repro.cpu.backend import cpu_kpm_breakdown as breakdown_fn


class TestCpuSpec:
    def test_i7_peak(self):
        # 2.8 GHz x 2 flops x 0.9 efficiency.
        assert CORE_I7_930.peak_flops == pytest.approx(2.8e9 * 2 * 0.9)

    def test_cache_ordering_enforced(self):
        with pytest.raises(ValidationError):
            CpuSpec(
                name="bad",
                clock_ghz=1.0,
                flops_per_cycle=1.0,
                cache_levels=(
                    CacheLevel("L2", 1024, 1e9),
                    CacheLevel("L1", 512, 2e9),
                ),
                dram_bandwidth_bytes_per_s=1e9,
            )

    def test_cache_level_validation(self):
        with pytest.raises(ValidationError):
            CacheLevel("L1", 0, 1e9)

    def test_with_updates(self):
        spec = CORE_I7_930.with_updates(clock_ghz=3.0)
        assert spec.clock_ghz == 3.0


class TestBandwidthForFootprint:
    def test_picks_innermost_level(self):
        spec = tiny_test_cpu()
        assert bandwidth_for_footprint(spec, 512) == 4e9  # fits L1
        assert bandwidth_for_footprint(spec, 8 * 1024) == 2e9  # fits L2
        assert bandwidth_for_footprint(spec, 1024 * 1024) == 1e9  # DRAM

    def test_boundary_inclusive(self):
        spec = tiny_test_cpu()
        assert bandwidth_for_footprint(spec, 1024) == 4e9

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            bandwidth_for_footprint(tiny_test_cpu(), -1)


class TestPhaseTime:
    def test_compute_bound(self):
        spec = tiny_test_cpu()  # 1 GFLOP/s peak
        seconds = phase_time(spec, flops=2e9, bytes_moved=8, footprint_bytes=8)
        assert seconds == pytest.approx(2.0)

    def test_memory_bound(self):
        spec = tiny_test_cpu()
        seconds = phase_time(spec, flops=1.0, bytes_moved=2e9)  # DRAM at 1 GB/s
        assert seconds == pytest.approx(2.0)

    def test_footprint_selects_bandwidth(self):
        spec = tiny_test_cpu()
        fast = phase_time(spec, flops=0.0, bytes_moved=4e9, footprint_bytes=512)
        slow = phase_time(spec, flops=0.0, bytes_moved=4e9, footprint_bytes=10**6)
        assert fast < slow

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            phase_time(tiny_test_cpu(), flops=-1, bytes_moved=0)


class TestKpmBreakdown:
    def test_phases_present(self):
        config = KPMConfig(num_moments=64, num_random_vectors=4)
        breakdown = cpu_kpm_breakdown(CORE_I7_930, 256, config)
        assert set(breakdown) == {"random", "matvec", "axpy", "dot"}
        assert all(v > 0 for v in breakdown.values())

    def test_matvec_dominates_dense(self):
        config = KPMConfig(num_moments=64, num_random_vectors=4)
        breakdown = cpu_kpm_breakdown(CORE_I7_930, 1024, config)
        assert breakdown["matvec"] > 10 * breakdown["dot"]

    def test_linear_in_n(self):
        base = KPMConfig(num_moments=128, num_random_vectors=4)
        t1 = estimate_cpu_kpm_seconds(CORE_I7_930, 256, base)
        t2 = estimate_cpu_kpm_seconds(CORE_I7_930, 256, base.with_updates(num_moments=256))
        assert t2 == pytest.approx(2 * t1, rel=0.05)

    def test_linear_in_vectors(self):
        base = KPMConfig(num_moments=64, num_random_vectors=4)
        t1 = estimate_cpu_kpm_seconds(CORE_I7_930, 256, base)
        t2 = estimate_cpu_kpm_seconds(
            CORE_I7_930, 256, base.with_updates(num_random_vectors=8)
        )
        assert t2 == pytest.approx(2 * t1, rel=0.05)

    def test_cache_cliff_superquadratic(self):
        # D=512 (2 MiB matrix) streams from L3; D=2048 (32 MiB) from DRAM.
        # Pure O(D^2) would be a 16x ratio; the bandwidth cliff adds more.
        config = KPMConfig(num_moments=64, num_random_vectors=4)
        t_512 = estimate_cpu_kpm_seconds(CORE_I7_930, 512, config)
        t_2048 = estimate_cpu_kpm_seconds(CORE_I7_930, 2048, config)
        assert t_2048 > 17.0 * t_512

    def test_csr_much_cheaper(self):
        config = KPMConfig(num_moments=64, num_random_vectors=4)
        dense = estimate_cpu_kpm_seconds(CORE_I7_930, 1000, config)
        sparse = estimate_cpu_kpm_seconds(
            CORE_I7_930, 1000, config, storage=StorageCost.csr(1000, 7000)
        )
        assert sparse < dense / 10

    def test_requires_spec(self):
        with pytest.raises(ValidationError):
            cpu_kpm_breakdown("cpu", 100, KPMConfig())


class TestCpuModelEngine:
    def test_numerics_match_numpy_backend(self, chain_csr, small_config):
        scaled, _ = rescale_operator(chain_csr)
        engine_data, report = CpuModelEngine().compute_moments(scaled, small_config)
        reference = stochastic_moments(scaled, small_config)
        np.testing.assert_array_equal(engine_data.mu, reference.mu)
        assert report.backend == "cpu-model"

    def test_modeled_time_matches_estimate(self, chain_csr, small_config):
        scaled, _ = rescale_operator(chain_csr)
        _, report = CpuModelEngine().compute_moments(scaled, small_config)
        expected = estimate_cpu_kpm_seconds(
            CORE_I7_930,
            chain_csr.shape[0],
            small_config,
            storage=StorageCost.csr(chain_csr.shape[0], chain_csr.nnz_stored),
        )
        assert report.modeled_seconds == pytest.approx(expected)

    def test_dense_operator_priced_dense(self, chain_dense, small_config):
        scaled, _ = rescale_operator(chain_dense)
        _, report = CpuModelEngine().compute_moments(scaled, small_config)
        expected = estimate_cpu_kpm_seconds(CORE_I7_930, 64, small_config)
        assert report.modeled_seconds == pytest.approx(expected)

    def test_ell_operator_priced_in_its_padded_slots(self):
        # Open 8^3 cube: 3,200 stored entries, but ELL holds 512 rows x 7
        # slots, so each matvec costs 7,168 flops over 57,344 matrix
        # bytes (CSR would be 6,400 over 55,304).
        scaled, _ = rescale_operator(
            tight_binding_hamiltonian(cubic(8, periodic=False), format="csr")
        )
        ell = scaled.to_ell()
        storage = StorageCost.of(ell)
        assert (storage.flops, storage.matrix_bytes) == (7168.0, 57344)
        config = KPMConfig(
            num_moments=64, num_random_vectors=4, num_realizations=1, seed=1
        )
        _, report = CpuModelEngine().compute_moments(ell, config)
        item, dim = 8, 512
        per_matvec = phase_time(
            CORE_I7_930,
            flops=7168.0,
            bytes_moved=57344 + 7 * dim * item + dim * item,
            footprint_bytes=57344 + 4 * dim * item,
        )
        assert report.breakdown["matvec"] == 4 * 63 * per_matvec
        csr_priced = estimate_cpu_kpm_seconds(
            CORE_I7_930, dim, config, storage=StorageCost.of(scaled)
        )
        assert report.modeled_seconds > csr_priced

    def test_storage_of_another_run_refused(self, small_config):
        with pytest.raises(ValidationError, match="dimension=100"):
            estimate_cpu_kpm_seconds(
                CORE_I7_930, 64, small_config, storage=StorageCost.csr(100, 700)
            )
        with pytest.raises(ValidationError, match="precision='single'"):
            estimate_cpu_kpm_seconds(
                CORE_I7_930,
                64,
                small_config,
                storage=StorageCost.dense(64, precision="single"),
            )

    def test_breakdown_sums_to_total(self, chain_csr, small_config):
        scaled, _ = rescale_operator(chain_csr)
        _, report = CpuModelEngine().compute_moments(scaled, small_config)
        assert sum(report.breakdown.values()) == pytest.approx(report.modeled_seconds)
