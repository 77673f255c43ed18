"""Unit tests for the storage-level matvec cost (repro.sparse.StorageCost)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.sparse import DenseOperator, StorageCost


@pytest.fixture(scope="module")
def cube():
    return tight_binding_hamiltonian(cubic(3), format="csr")


class TestCounts:
    def test_dense(self):
        cost = StorageCost.dense(10)
        assert cost.format == "dense"
        assert cost.upload_bytes == (800,)
        assert cost.matrix_bytes == 800
        assert cost.flops == 200.0
        assert cost.operand_reads == 10

    def test_csr(self):
        cost = StorageCost.csr(100, 700)
        assert cost.upload_bytes == (700 * 8, 700 * 8, 101 * 8)
        assert cost.matrix_bytes == sum(cost.upload_bytes)
        assert cost.flops == 1400.0
        assert cost.operand_reads == 700

    def test_ell_counts_padding(self):
        cost = StorageCost.ell(100, 9)
        assert cost.upload_bytes == (900 * 8, 900 * 8)
        assert cost.flops == 1800.0
        assert cost.operand_reads == 900

    def test_single_precision_halves_values_not_indices(self):
        single = StorageCost.csr(100, 700, precision="single")
        assert single.upload_bytes == (700 * 4, 700 * 8, 101 * 8)
        assert single.precision == "single"

    def test_validation(self):
        with pytest.raises(ValidationError, match="dimension"):
            StorageCost.dense(0)
        with pytest.raises(ValidationError, match="at most"):
            StorageCost.csr(3, 10)
        with pytest.raises(ValidationError, match="width"):
            StorageCost.ell(3, -1)
        with pytest.raises(ValidationError, match="precision"):
            StorageCost.dense(3, precision="half")


class TestOf:
    def test_csr_operator(self, cube):
        assert StorageCost.of(cube) == StorageCost.csr(27, cube.nnz_stored)

    def test_ell_operator_keeps_its_width(self, cube):
        ell = cube.to_ell()
        assert StorageCost.of(ell) == StorageCost.ell(27, ell.width)

    def test_anything_else_is_dense(self, cube):
        assert StorageCost.of(cube.to_dense()) == StorageCost.dense(27)
        assert StorageCost.of(DenseOperator(np.eye(4))).format == "dense"

    def test_needs_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            StorageCost.of(42)
