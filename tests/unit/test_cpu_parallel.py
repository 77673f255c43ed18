"""Unit tests for the shared-memory CPU parallelization model."""

import pytest

from repro.cpu import (
    AGGREGATE_BANDWIDTH_FACTOR,
    CORE_I7_930,
    estimate_cpu_kpm_seconds,
    estimate_parallel_cpu_kpm_seconds,
    parallel_speedup_factor,
)
from repro.errors import ValidationError
from repro.kpm import KPMConfig
from repro.sparse import StorageCost


class TestSpeedupFactor:
    def test_compute_bound_scales_linearly(self):
        assert parallel_speedup_factor(8, memory_bound=False) == 8.0

    def test_memory_bound_saturates(self):
        assert parallel_speedup_factor(8, memory_bound=True) == AGGREGATE_BANDWIDTH_FACTOR

    def test_single_thread_is_identity(self):
        assert parallel_speedup_factor(1, memory_bound=True) == 1.0
        assert parallel_speedup_factor(1, memory_bound=False) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            parallel_speedup_factor(0, memory_bound=False)


class TestParallelEstimate:
    @pytest.fixture
    def config(self):
        return KPMConfig(num_moments=256, num_random_vectors=64, num_realizations=1)

    def test_one_thread_equals_serial(self, config):
        serial = estimate_cpu_kpm_seconds(CORE_I7_930, 1000, config)
        parallel = estimate_parallel_cpu_kpm_seconds(
            CORE_I7_930, 1000, config, threads=1
        )
        assert parallel == pytest.approx(serial)

    def test_more_threads_never_slower(self, config):
        times = [
            estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 1000, config, threads=t)
            for t in (1, 2, 4, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))

    def test_dram_bound_saturates_early(self, config):
        # D=1000 dense streams the matrix: 2 and 8 threads nearly tie.
        two = estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 1000, config, threads=2)
        eight = estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 1000, config, threads=8)
        assert eight > 0.9 * two

    def test_cache_resident_scales(self, config):
        # D=128 fits L2 and is compute-bound: near-linear scaling.
        one = estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 128, config, threads=1)
        four = estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 128, config, threads=4)
        assert four == pytest.approx(one / 4, rel=0.05)

    def test_csr_path(self, config):
        csr = StorageCost.csr(1000, 7000)
        serial = estimate_cpu_kpm_seconds(CORE_I7_930, 1000, config, storage=csr)
        parallel = estimate_parallel_cpu_kpm_seconds(
            CORE_I7_930, 1000, config, threads=4, storage=csr
        )
        assert parallel < serial

    def test_validation(self, config):
        with pytest.raises(ValidationError):
            estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 100, config, threads=0)
        with pytest.raises(ValidationError):
            estimate_parallel_cpu_kpm_seconds(CORE_I7_930, 100, {"N": 5}, threads=2)


class TestAblation:
    def test_gpu_advantage_shrinks_with_threads(self):
        from repro.bench import cpu_threads_ablation

        result = cpu_threads_ablation(thread_counts=(1, 4), num_moments=128)
        advantage = result.column("gpu_advantage_D1000")
        assert advantage[1] < advantage[0]

    def test_cache_resident_cpu_catches_up(self):
        from repro.bench import cpu_threads_ablation

        result = cpu_threads_ablation(thread_counts=(1, 8), num_moments=128)
        assert result.column("gpu_advantage_D128")[-1] < 1.0
