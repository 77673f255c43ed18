"""Unit tests for the guards of repro.sparse.sweep's compiled row loop.

The loop does no bounds checking of its own, so every index it would
follow is checked before it runs: the row pointer when its plan is
built, the data/indices lengths against the plan, and every column
index against the operand.
"""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.sparse import CSRMatrix
from repro.sparse.sweep import (
    build_sweep_plan,
    csr_sweep_matmat,
    csr_sweep_matvec,
    ell_sweep_matmat,
    ell_sweep_matvec,
)


class TestPlanGuard:
    def test_other_matrix_plan_raises(self):
        small = CSRMatrix.from_dense(np.eye(3))
        wide = CSRMatrix.from_dense(np.ones((3, 3)))
        x = np.ones(3)
        with pytest.raises(ShapeError, match="nnz=3"):
            csr_sweep_matvec(wide.data, wide.indices, small.sweep_plan, x)
        with pytest.raises(ShapeError, match="nnz=9"):
            csr_sweep_matmat(small.data, small.indices, wide.sweep_plan, x[:, None])

    def test_indices_length_checked(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            csr_sweep_matvec(csr.data, csr.indices[:2], csr.sweep_plan, np.ones(3))

    def test_non_plan_rejected(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            csr_sweep_matvec(csr.data, csr.indices, csr.indptr, np.ones(3))


def sweep_with_indices(kind, indices, operand):
    """Run one of the four sweeps over three rows of one entry each."""
    data = np.ones(3)
    indices = np.asarray(indices, dtype=np.int64)
    if kind == "csr":
        plan = build_sweep_plan([0, 1, 2, 3], 3)
        if operand.ndim == 1:
            return csr_sweep_matvec(data, indices, plan, operand)
        return csr_sweep_matmat(data, indices, plan, operand)
    if operand.ndim == 1:
        return ell_sweep_matvec(data[:, None], indices[:, None], operand)
    return ell_sweep_matmat(data[:, None], indices[:, None], operand)


SWEEPS = [("csr", 1), ("csr", 2), ("ell", 1), ("ell", 2)]
SWEEP_IDS = ["csr-matvec", "csr-matmat", "ell-matvec", "ell-matmat"]


def operand_of(ndim):
    x = np.array([1.0, 2.0, 3.0])
    return x if ndim == 1 else np.stack([x, -x], axis=1)


class TestColumnBounds:
    @pytest.mark.parametrize("kind,ndim", SWEEPS, ids=SWEEP_IDS)
    def test_negative_index_raises(self, kind, ndim):
        # Without the check the row would silently read x[-1].
        with pytest.raises(ValidationError, match="column index out of range"):
            sweep_with_indices(kind, [0, -1, 2], operand_of(ndim))

    @pytest.mark.parametrize("kind,ndim", SWEEPS, ids=SWEEP_IDS)
    def test_index_past_operand_raises(self, kind, ndim):
        with pytest.raises(ValidationError, match="column index out of range"):
            sweep_with_indices(kind, [0, 3, 2], operand_of(ndim))

    def test_padding_index_needs_a_column(self):
        # An ELL padded slot reads x[0], so an empty operand cannot be swept.
        with pytest.raises(ValidationError, match="column index out of range"):
            ell_sweep_matvec(np.zeros((2, 1)), np.zeros((2, 1), dtype=np.int64), np.ones(0))


class TestRowPointer:
    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            build_sweep_plan([0, 2, 1, 3], 3)

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, nnz\]"):
            build_sweep_plan([-1, 1, 2, 3], 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            build_sweep_plan([0, 1, 2], 3)

    def test_plan_keeps_a_private_read_only_copy(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)
        plan = build_sweep_plan(indptr, 2)
        indptr[1] = 5
        np.testing.assert_array_equal(plan.indptr, [0, 1, 3])
        assert not plan.indptr.flags.writeable
        assert plan.nnz == 3 and plan.n_rows == 2
