"""Integration: analytic estimators equal executed modeled times.

This is the load-bearing property of the harness (DESIGN.md §5,
functional-sampling note): the figures are produced by the analytic
estimators at full paper parameters, which is only valid because the
estimators are *exact* for the simulator's launch schedule.  These tests
sweep the parameter grid at executable sizes and require exact (to
rounding) agreement.
"""

import numpy as np
import pytest

from repro.cluster import MultiGpuKPM, estimate_multigpu_seconds
from repro.cpu import CORE_I7_930, CpuModelEngine, estimate_cpu_kpm_seconds
from repro.gpu import TESLA_C2050, GTX_580
from repro.gpukpm import GpuKPM, estimate_gpu_kpm_seconds, spmv_model_for
from repro.kpm import KPMConfig, rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.sparse import ELLMatrix, StorageCost


def scaled(format):
    h = tight_binding_hamiltonian(cubic(4), format=format)
    op, _ = rescale_operator(h)
    return h, op


def over_wide_ell():
    """The 4^3 cube's ELL with two more all-padding slot columns."""
    ell = scaled("csr")[1].to_ell()
    pad = np.zeros((ell.shape[0], 2))
    return ELLMatrix(
        np.hstack([ell.data, pad]),
        np.hstack([ell.indices, pad.astype(np.int64)]),
        ell.row_nnz,
        ell.shape,
    )


PARAM_GRID = [
    dict(num_moments=8, num_random_vectors=4, num_realizations=1, block_size=32),
    dict(num_moments=33, num_random_vectors=7, num_realizations=3, block_size=64),
    dict(num_moments=64, num_random_vectors=16, num_realizations=2, block_size=128),
    dict(num_moments=17, num_random_vectors=5, num_realizations=2, block_size=512),
]


class TestGpuEstimatorExactness:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_csr(self, params):
        h, op = scaled("csr")
        config = KPMConfig(seed=1, **params)
        _, report = GpuKPM().compute_moments(op, config)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050, h.shape[0], config, spmv=spmv_model_for(op, "csr")
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID[:2])
    def test_dense(self, params):
        h, op = scaled("dense")
        config = KPMConfig(seed=1, **params)
        _, report = GpuKPM().compute_moments(op, config)
        estimate = estimate_gpu_kpm_seconds(TESLA_C2050, h.shape[0], config)
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID[:2])
    def test_ell(self, params):
        _, op = scaled("csr")
        ell = op.to_ell()
        config = KPMConfig(seed=1, **params)
        _, report = GpuKPM().compute_moments(ell, config)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050, ell.shape[0], config, spmv=spmv_model_for(ell, "ell")
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_ell_wider_than_its_longest_row(self):
        # Every stored slot column is uploaded and swept, padding or not.
        ell = over_wide_ell()
        config = KPMConfig(num_moments=16, num_random_vectors=4, seed=1)
        runner = GpuKPM()
        _, report = runner.compute_moments(ell, config)
        assert runner.last_spmv.storage == StorageCost.ell(64, ell.width)
        assert report.modeled_seconds == pytest.approx(
            GpuKPM().estimate_modeled_seconds(ell, config), rel=1e-12
        )

    def test_other_device_spec(self):
        h, op = scaled("csr")
        config = KPMConfig(num_moments=16, num_random_vectors=4, block_size=32)
        _, report = GpuKPM(GTX_580).compute_moments(op, config)
        estimate = estimate_gpu_kpm_seconds(
            GTX_580, h.shape[0], config, spmv=spmv_model_for(op, "csr")
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)


class TestCpuEstimatorExactness:
    @pytest.mark.parametrize("params", PARAM_GRID[:3])
    def test_csr(self, params):
        h, op = scaled("csr")
        config = KPMConfig(seed=1, **params)
        _, report = CpuModelEngine().compute_moments(op, config)
        estimate = estimate_cpu_kpm_seconds(
            CORE_I7_930,
            h.shape[0],
            config,
            storage=StorageCost.csr(h.shape[0], h.nnz_stored),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID[:2])
    def test_dense(self, params):
        h, op = scaled("dense")
        config = KPMConfig(seed=1, **params)
        _, report = CpuModelEngine().compute_moments(op, config)
        estimate = estimate_cpu_kpm_seconds(CORE_I7_930, h.shape[0], config)
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize(
        "ell", [scaled("csr")[1].to_ell(), over_wide_ell()], ids=["packed", "over-wide"]
    )
    def test_ell(self, ell):
        config = KPMConfig(seed=1, **PARAM_GRID[1])
        _, report = CpuModelEngine().compute_moments(ell, config)
        estimate = estimate_cpu_kpm_seconds(
            CORE_I7_930,
            ell.shape[0],
            config,
            storage=StorageCost.ell(ell.shape[0], ell.width),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)


class TestMultiGpuEstimatorExactness:
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_matches_run(self, devices):
        h, op = scaled("csr")
        config = KPMConfig(
            num_moments=16, num_random_vectors=8, num_realizations=1, block_size=32
        )
        _, report = MultiGpuKPM(devices).compute_moments(op, config)
        estimate = estimate_multigpu_seconds(
            TESLA_C2050, h.shape[0], config, devices, spmv=spmv_model_for(op, "csr")
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)
