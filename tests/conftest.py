"""Shared fixtures: small Hamiltonians, configs, and device specs.

Everything here is sized for sub-second tests; the figure-scale runs
live in ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.spec import tiny_test_device
from repro.kpm import KPMConfig
from repro.lattice import chain, cubic, square, tight_binding_hamiltonian


@pytest.fixture
def rng():
    """A deterministic NumPy generator for ad-hoc test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def chain_csr():
    """Periodic 64-site chain Hamiltonian (CSR): analytic DoS available."""
    return tight_binding_hamiltonian(chain(64), format="csr")


@pytest.fixture
def chain_dense():
    """Periodic 64-site chain Hamiltonian (dense operator)."""
    return tight_binding_hamiltonian(chain(64), format="dense")


@pytest.fixture
def cube4_csr():
    """The paper's lattice at miniature scale: 4^3 periodic cube (CSR)."""
    return tight_binding_hamiltonian(cubic(4), format="csr")


@pytest.fixture
def square_open_csr():
    """A 5x7 open-boundary square lattice: irregular coordination numbers."""
    return tight_binding_hamiltonian(square(5, 7, periodic=False), format="csr")


@pytest.fixture
def small_config():
    """Fast KPM parameters for functional tests."""
    return KPMConfig(
        num_moments=32,
        num_random_vectors=8,
        num_realizations=2,
        seed=7,
        block_size=32,
    )


@pytest.fixture
def tiny_gpu():
    """A 1 MiB-VRAM device spec for allocator/launch-limit tests."""
    return tiny_test_device()


def random_symmetric(dimension: int, seed: int = 0) -> np.ndarray:
    """Dense random symmetric matrix with spectrum roughly in [-2, 2]."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((dimension, dimension)) / np.sqrt(dimension)
    return a + a.T


@pytest.fixture
def profile_scans(monkeypatch):
    """The shapes of every structure-profile scan made during the test.

    Each entry is one O(nnz) pass of
    :func:`repro.sparse.structure_profile` over a stored pattern.
    """
    import repro.sparse.fingerprint as fingerprint

    scans = []
    original = fingerprint._profile_from_pattern

    def counted(rows, cols, shape, dtype):
        scans.append(tuple(shape))
        return original(rows, cols, shape, dtype)

    monkeypatch.setattr(fingerprint, "_profile_from_pattern", counted)
    return scans
