"""Unit tests for repro.gpukpm.stats and repro.gpukpm.memory_plan."""

import pytest

from repro.errors import LaunchError, ValidationError
from repro.gpu import TESLA_C2050
from repro.gpukpm import (
    GridPlan,
    paper_memory_bytes,
    plan_grid,
    plan_memory,
    per_vector_recursion_stats,
    recursion_launch_stats,
    reduce_launch_stats,
    uniform_csr_model,
)
from repro.kpm import KPMConfig


class TestGridPlan:
    def test_paper_configuration(self):
        # R*S = 1792, BLOCK_SIZE = 256 -> 7 blocks (paper Sec. III-A).
        plan = plan_grid(1792, 256, TESLA_C2050)
        assert plan.num_blocks == 7

    def test_ragged_last_block(self):
        plan = plan_grid(100, 32, TESLA_C2050)
        assert plan.num_blocks == 4
        assert list(plan.vectors_of(3)) == list(range(96, 100))

    def test_vectors_partition_exactly(self):
        plan = plan_grid(100, 32, TESLA_C2050)
        all_vectors = [v for b in range(plan.num_blocks) for v in plan.vectors_of(b)]
        assert all_vectors == list(range(100))

    def test_block_id_out_of_range(self):
        plan = plan_grid(64, 32, TESLA_C2050)
        with pytest.raises(ValidationError):
            plan.vectors_of(2)

    def test_block_size_over_device_limit(self):
        with pytest.raises(LaunchError):
            plan_grid(4096, 2048, TESLA_C2050)


class TestPerVectorStats:
    def test_dense_flop_count(self):
        # RNG 4D + (N-1)(2D^2 + 2D) + N*2D.
        d, n = 100, 8
        stats = per_vector_recursion_stats(d, n)
        expected = 4 * d + (n - 1) * (2 * d * d + 2 * d) + n * 2 * d
        assert stats.flops == expected

    def test_csr_flop_count(self):
        d, n, nnz = 100, 8, 700
        stats = per_vector_recursion_stats(d, n, spmv=uniform_csr_model(d, nnz))
        expected = 4 * d + (n - 1) * (2 * nnz + 2 * d) + n * 2 * d
        assert stats.flops == expected

    def test_dense_reads_dominated_by_matrix(self):
        d, n = 1000, 128
        stats = per_vector_recursion_stats(d, n)
        matrix_bytes = (n - 1) * d * d * 8
        assert stats.gmem_read_bytes > matrix_bytes
        assert stats.gmem_read_bytes < 1.1 * matrix_bytes

    def test_single_moment_no_matvec(self):
        stats = per_vector_recursion_stats(50, 1)
        # only RNG + one dot
        assert stats.flops == 4 * 50 + 2 * 50

    def test_thread_efficiency_full_when_block_fits(self):
        stats = per_vector_recursion_stats(256, 8, block_size=128)
        assert stats.thread_efficiency == 1.0

    def test_thread_efficiency_penalizes_wide_blocks(self):
        stats = per_vector_recursion_stats(128, 8, block_size=256)
        assert stats.thread_efficiency == 0.5

    def test_coalescing_dense_vs_csr(self):
        dense = per_vector_recursion_stats(64, 4)
        sparse = per_vector_recursion_stats(64, 4, spmv=uniform_csr_model(64, 400))
        assert dense.coalescing < sparse.coalescing


class TestLaunchStats:
    def test_aggregate_scales_with_vectors(self):
        plan = plan_grid(64, 32, TESLA_C2050)
        launch = recursion_launch_stats(100, 8, plan, TESLA_C2050)
        per_vector = per_vector_recursion_stats(100, 8, block_size=32)
        assert launch.flops == pytest.approx(64 * per_vector.flops)

    def test_footprint_includes_matrix_and_workspace(self):
        plan = plan_grid(64, 32, TESLA_C2050)
        launch = recursion_launch_stats(100, 8, plan, TESLA_C2050)
        matrix = 100 * 100 * 8
        active = min(plan.num_blocks, TESLA_C2050.sm_count)
        assert launch.footprint_bytes == matrix + active * 4 * 100 * 8

    def test_reduce_stats(self):
        stats = reduce_launch_stats(16, 100)
        assert stats.flops == 1600
        assert stats.gmem_read_bytes == 1600 * 8
        assert stats.gmem_write_bytes == 16 * 8


class TestMemoryPlan:
    def test_paper_formula(self):
        # num_blocks x H_SIZE x (8N + 32).
        assert paper_memory_bytes(7, 1000, 1024) == 7 * 1000 * (8 * 1024 + 32)

    def test_actual_differs_from_paper_formula(self):
        # The paper's moment buffer over-counts by a factor ~H_SIZE.
        config = KPMConfig(num_random_vectors=128, num_realizations=14, num_moments=1024)
        plan = plan_memory(TESLA_C2050, 1000, config)
        assert plan.paper_bytes != plan.total_bytes
        assert plan.moment_table_bytes == 1792 * 1024 * 8

    def test_workspace_matches_paper_term(self):
        # The 4-vectors-per-block term is the part the paper got right.
        config = KPMConfig(num_random_vectors=128, num_realizations=14, num_moments=256)
        plan = plan_memory(TESLA_C2050, 1000, config)
        assert plan.workspace_bytes == 7 * 4 * 1000 * 8

    def test_fits_capacity(self):
        config = KPMConfig(num_random_vectors=128, num_realizations=14, num_moments=1024)
        assert plan_memory(TESLA_C2050, 4096, config).fits(TESLA_C2050)

    def test_csr_matrix_bytes(self):
        config = KPMConfig(num_random_vectors=8, num_realizations=1, num_moments=16)
        plan = plan_memory(TESLA_C2050, 100, config, spmv=uniform_csr_model(100, 700))
        assert plan.matrix_bytes == 700 * 16 + 101 * 8

    def test_summary_renders(self):
        config = KPMConfig(num_random_vectors=8, num_realizations=1)
        text = plan_memory(TESLA_C2050, 64, config).summary()
        assert "paper formula" in text
