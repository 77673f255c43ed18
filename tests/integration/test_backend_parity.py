"""Integration: all execution backends produce the same physics.

The determinism contract (Philox streams keyed by (seed, s, r)) means
the NumPy reference, the CPU-model backend, the GPU simulator, and the
multi-GPU cluster compute the same per-vector rows with one recursion
step and reduce them with one mean, so in double precision their
moments are bit-identical — and therefore every derived quantity.
"""

import numpy as np
import pytest

from repro.cluster import MultiGpuKPM
from repro.kpm import KPMConfig, compute_dos, rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian

BACKENDS = ("numpy", "cpu-model", "gpu-sim")


@pytest.fixture(scope="module")
def hamiltonian():
    return tight_binding_hamiltonian(cubic(5), format="csr")


@pytest.fixture(scope="module")
def config():
    return KPMConfig(
        num_moments=48,
        num_random_vectors=8,
        num_realizations=2,
        seed=21,
        block_size=32,
    )


@pytest.fixture(scope="module")
def results(hamiltonian, config):
    return {
        backend: compute_dos(hamiltonian, config, backend=backend)
        for backend in BACKENDS
    }


class TestMomentParity:
    def test_all_backends_same_moments(self, results):
        reference = results["numpy"].moments.mu
        for backend in BACKENDS[1:]:
            np.testing.assert_array_equal(
                results[backend].moments.mu, reference,
                err_msg=f"backend {backend} diverged",
            )

    def test_all_backends_same_density(self, results):
        reference = results["numpy"].density
        for backend in BACKENDS[1:]:
            np.testing.assert_allclose(results[backend].density, reference, atol=1e-10)

    def test_multigpu_matches_reference(self, hamiltonian, config, results):
        scaled, _ = rescale_operator(
            hamiltonian, method=config.bounds_method, epsilon=config.epsilon
        )
        for devices in (2, 5):
            data, _ = MultiGpuKPM(devices).compute_moments(scaled, config)
            np.testing.assert_array_equal(data.mu, results["numpy"].moments.mu)


class TestTimingReports:
    def test_hardware_backends_report_modeled_time(self, results):
        assert results["numpy"].timing.modeled_seconds is None
        assert results["cpu-model"].timing.modeled_seconds > 0
        assert results["gpu-sim"].timing.modeled_seconds > 0

    def test_device_names(self, results):
        assert "Core i7" in results["cpu-model"].timing.device
        assert "Tesla" in results["gpu-sim"].timing.device


class TestStorageParity:
    def test_dense_and_csr_same_moments(self, config):
        dense = tight_binding_hamiltonian(cubic(4), format="dense")
        sparse = tight_binding_hamiltonian(cubic(4), format="csr")
        r_dense = compute_dos(dense, config, backend="gpu-sim")
        r_sparse = compute_dos(sparse, config, backend="gpu-sim")
        np.testing.assert_allclose(
            r_dense.moments.mu, r_sparse.moments.mu, atol=1e-11
        )

    def test_dense_priced_higher_than_csr(self, config):
        dense = tight_binding_hamiltonian(cubic(4), format="dense")
        sparse = tight_binding_hamiltonian(cubic(4), format="csr")
        t_dense = compute_dos(dense, config, backend="gpu-sim").timing.modeled_seconds
        t_sparse = compute_dos(sparse, config, backend="gpu-sim").timing.modeled_seconds
        assert t_dense > t_sparse
