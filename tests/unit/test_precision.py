"""Unit tests for single-precision support across the stack."""

import numpy as np
import pytest

from repro.cpu import CORE_I7_930, estimate_cpu_kpm_seconds
from repro.errors import ValidationError
from repro.gpu import KernelStats, TESLA_C2050, compute_occupancy, kernel_cost
from repro.gpukpm import (
    GpuKPM,
    estimate_gpu_kpm_seconds,
    per_vector_recursion_stats,
    plan_memory,
    spmv_model_for,
    uniform_csr_model,
)
from repro.kpm import KPMConfig, rescale_operator, stochastic_moments
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture
def scaled_cube():
    h = tight_binding_hamiltonian(cubic(4), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


class TestConfig:
    def test_precision_validated(self):
        with pytest.raises(ValidationError):
            KPMConfig(precision="half")

    def test_default_double(self):
        assert KPMConfig().precision == "double"


class TestCostModelPrecision:
    def test_sp_flops_priced_at_sp_peak(self):
        occupancy = compute_occupancy(TESLA_C2050, 256)
        dp = kernel_cost(
            TESLA_C2050, KernelStats(flops=1e12), grid_blocks=64, occupancy=occupancy
        )
        sp = kernel_cost(
            TESLA_C2050,
            KernelStats(flops=1e12, precision="single"),
            grid_blocks=64,
            occupancy=occupancy,
        )
        ratio = TESLA_C2050.peak_sp_flops / TESLA_C2050.peak_dp_flops
        assert dp.compute_seconds == pytest.approx(sp.compute_seconds * ratio)

    def test_merge_promotes_to_double(self):
        stats = KernelStats(precision="single")
        stats.merge(KernelStats(flops=1.0, precision="double"))
        assert stats.precision == "double"

    def test_merge_keeps_single(self):
        stats = KernelStats(precision="single")
        stats.merge(KernelStats(flops=1.0, precision="single"))
        assert stats.precision == "single"


class TestStatsPrecision:
    def test_single_halves_float_traffic(self):
        dp = per_vector_recursion_stats(100, 16)
        sp = per_vector_recursion_stats(100, 16, precision="single")
        assert sp.gmem_read_bytes == pytest.approx(dp.gmem_read_bytes / 2)
        assert sp.flops == dp.flops

    def test_csr_indices_stay_wide(self):
        dp = per_vector_recursion_stats(100, 16, spmv=uniform_csr_model(100, 700))
        sp = per_vector_recursion_stats(
            100,
            16,
            spmv=uniform_csr_model(100, 700, precision="single"),
            precision="single",
        )
        # Index traffic is precision-independent, so the ratio is > 1/2.
        assert sp.gmem_read_bytes > dp.gmem_read_bytes / 2

    def test_invalid_precision(self):
        with pytest.raises(ValidationError):
            per_vector_recursion_stats(10, 4, precision="quad")

    def test_memory_plan_halves(self):
        config = KPMConfig(num_random_vectors=8, num_realizations=1)
        dp = plan_memory(TESLA_C2050, 64, config)
        sp = plan_memory(TESLA_C2050, 64, config.with_updates(precision="single"))
        assert sp.matrix_bytes == dp.matrix_bytes // 2
        assert sp.workspace_bytes == dp.workspace_bytes // 2


class TestPipelinePrecision:
    def test_float32_moments_close_to_float64(self, scaled_cube):
        config = KPMConfig(
            num_moments=48, num_random_vectors=8, num_realizations=1,
            seed=3, block_size=32,
        )
        dp_data, _ = GpuKPM().compute_moments(scaled_cube, config)
        sp_data, _ = GpuKPM().compute_moments(
            scaled_cube, config.with_updates(precision="single")
        )
        drift = np.max(np.abs(dp_data.mu - sp_data.mu))
        assert 0 < drift < 1e-4

    def test_single_precision_modeled_faster(self, scaled_cube):
        config = KPMConfig(
            num_moments=48, num_random_vectors=8, num_realizations=1,
            seed=3, block_size=32,
        )
        _, dp_report = GpuKPM().compute_moments(scaled_cube, config)
        _, sp_report = GpuKPM().compute_moments(
            scaled_cube, config.with_updates(precision="single")
        )
        assert sp_report.modeled_seconds < dp_report.modeled_seconds

    def test_estimator_matches_run_single(self, scaled_cube):
        config = KPMConfig(
            num_moments=32, num_random_vectors=8, num_realizations=1,
            seed=1, block_size=32, precision="single",
        )
        _, report = GpuKPM().compute_moments(scaled_cube, config)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050,
            scaled_cube.shape[0],
            config,
            spmv=spmv_model_for(scaled_cube, "csr", precision="single"),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_device_buffers_are_float32(self, scaled_cube):
        config = KPMConfig(
            num_moments=16, num_random_vectors=4, num_realizations=1,
            block_size=32, precision="single",
        )
        runner = GpuKPM()
        runner.compute_moments(scaled_cube, config)
        # Peak memory halves relative to the plan of the double config.
        sp_plan = plan_memory(
            TESLA_C2050, scaled_cube.shape[0], config, spmv=runner.last_spmv
        )
        assert runner.last_device.memory.peak_bytes == sp_plan.total_bytes


class TestCpuPrecision:
    def test_single_faster_when_memory_bound(self):
        config = KPMConfig(num_moments=64, num_random_vectors=4)
        dp = estimate_cpu_kpm_seconds(CORE_I7_930, 2048, config)
        sp = estimate_cpu_kpm_seconds(
            CORE_I7_930, 2048, config.with_updates(precision="single")
        )
        assert sp < dp


class TestAblation:
    def test_precision_ablation_bands(self):
        from repro.bench import precision_ablation

        result = precision_ablation(h_sizes=(512, 1024), num_moments=64)
        ratios = result.column("dp_over_sp")
        assert all(1.5 <= r <= 2.2 for r in ratios)
        assert "drift" in result.notes
