"""Integration: the reproduced figures land in the paper's bands.

These tests encode the *shape claims* of the paper's evaluation section
(who wins, by roughly what factor, where trends bend) as assertions over
the harness output — the reproduction's headline contract.
"""

import numpy as np
import pytest

from repro.bench import fig5, fig6, fig7, fig8


class TestFig5Band:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5()

    def test_sweeps_the_paper_orders(self, result):
        assert result.column("N") == [128, 256, 512, 1024]

    def test_speedup_in_paper_band(self, result):
        # Paper: "The speedup keeps 3.5 times for all the cases."
        for speedup in result.column("speedup"):
            assert 3.0 <= speedup <= 4.0

    def test_speedup_flat_over_n(self, result):
        speedups = result.column("speedup")
        assert max(speedups) - min(speedups) < 0.25

    def test_times_scale_linearly_with_n(self, result):
        cpu = result.column("cpu_seconds")
        # N doubles each step; times must too (within 10%).
        for a, b in zip(cpu, cpu[1:]):
            assert b == pytest.approx(2 * a, rel=0.1)


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6(num_random_vectors=12, num_realizations=2, num_energy_points=512)

    def test_band_support(self, result):
        # Cubic lattice band is [-6, 6]; Gerschgorin+margin cannot exceed 6.06.
        energies = np.array(result.column("energy"))
        assert energies[0] > -6.3
        assert energies[-1] < 6.3

    def test_both_curves_normalized(self, result):
        energies = np.array(result.column("energy"))
        for column in ("dos_N256", "dos_N512"):
            curve = np.array(result.column(column))
            assert abs(np.trapezoid(curve, energies) - 1.0) < 0.02

    def test_higher_n_resolves_band_edge_more_sharply(self, result):
        # Resolution metric: the sharper truncation tracks the DoS fall-off
        # beyond the band edge with less broadening leakage.
        energies = np.array(result.column("energy"))
        low_n = np.array(result.column("dos_N256"))
        high_n = np.array(result.column("dos_N512"))
        outside = np.abs(energies) > 6.02
        assert high_n[outside].max(initial=0.0) <= low_n[outside].max(initial=0.0) + 1e-9

    def test_higher_n_is_spikier(self, result):
        # The 10^3 lattice spectrum is highly degenerate; doubling N
        # resolves individual degenerate levels as spikes — exactly the
        # "higher resolution" the paper's Fig. 6 demonstrates.  Total
        # variation is the spikiness measure.
        low_n = np.array(result.column("dos_N256"))
        high_n = np.array(result.column("dos_N512"))
        assert np.abs(np.diff(high_n)).sum() > 1.3 * np.abs(np.diff(low_n)).sum()

    def test_integrated_dos_agrees(self, result):
        # Pointwise the curves differ (resolution), but the cumulative
        # spectral weight must match everywhere.
        energies = np.array(result.column("energy"))
        low_n = np.array(result.column("dos_N256"))
        high_n = np.array(result.column("dos_N512"))
        widths = np.diff(energies)
        cdf_low = np.cumsum(0.5 * (low_n[1:] + low_n[:-1]) * widths)
        cdf_high = np.cumsum(0.5 * (high_n[1:] + high_n[:-1]) * widths)
        assert np.max(np.abs(cdf_low - cdf_high)) < 0.02


class TestFig7Band:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7()

    def test_sweeps_the_paper_orders(self, result):
        assert result.column("N") == [128, 256, 512, 1024, 2048]

    def test_speedup_rises_with_n(self, result):
        speedups = result.column("speedup")
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_final_speedup_near_four(self, result):
        # Paper: "the speedup increases to almost 4 times."
        assert 3.4 <= result.column("speedup")[-1] <= 4.3

    def test_first_speedup_lower(self, result):
        speedups = result.column("speedup")
        assert speedups[0] < speedups[-1] - 0.5


class TestFig8Band:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8()

    def test_sweeps_the_paper_sizes(self, result):
        assert result.column("H_SIZE") == [512, 1024, 2048, 4096]

    def test_first_speedup_below_band_ceiling(self, result):
        assert result.column("speedup")[0] <= 4.7

    def test_gpu_always_wins_by_3x_plus(self, result):
        for speedup in result.column("speedup"):
            assert speedup >= 3.0

    def test_speedup_near_four_at_scale(self, result):
        # Paper: "almost four times faster performance than the CPU version."
        for speedup in result.column("speedup")[1:]:
            assert 3.5 <= speedup <= 4.7

    def test_cpu_grows_superquadratically(self, result):
        cpu = result.column("cpu_seconds")
        # D doubles: pure O(D^2) would give 4x; the cache cliff gives more
        # somewhere in the sweep.
        ratios = [b / a for a, b in zip(cpu, cpu[1:])]
        assert max(ratios) > 4.3

    def test_gpu_stays_quadratic(self, result):
        # Paper: "the execution time of the GPU version does not increase
        # more than the complexity O(H_SIZE^2)."
        gpu = result.column("gpu_seconds")
        for a, b in zip(gpu, gpu[1:]):
            assert b <= 4.3 * a
