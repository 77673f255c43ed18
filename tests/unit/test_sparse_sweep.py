"""Unit tests for the guards of repro.sparse.sweep's compiled row loop.

The loop does no bounds checking of its own, so every index it would
follow is checked before it runs.  The row pointer, the column indices
and the column count are checked once, when the plan is built; each
sweep then checks the plan type, the length of the values, and the
rank and row count of the operand against the plan.
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
            csr_sweep_matvec(wide.data, small.sweep_plan, x)
        with pytest.raises(ShapeError, match="nnz=9"):
            csr_sweep_matmat(small.data, wide.sweep_plan, x[:, None])

    def test_indices_length_checked(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError, match="nnz"):
            build_sweep_plan(csr.indptr, csr.indices[:2], csr.shape)
        with pytest.raises(ShapeError, match="nnz=3"):
            csr_sweep_matvec(csr.data[:2], csr.sweep_plan, np.ones(3))

    def test_non_plan_rejected(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError, match="SweepPlan"):
            csr_sweep_matvec(csr.data, csr.indptr, np.ones(3))
        with pytest.raises(ValidationError, match="SweepPlan"):
            ell_sweep_matmat(csr.data[:, None], None, np.ones((3, 1)))

    @pytest.mark.parametrize("shape", [(2, 1), (4,), (4, 2)])
    def test_operand_rows_must_be_the_plan_columns(self, shape):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError, match="3 columns"):
            csr_sweep_matmat(csr.data, csr.sweep_plan, np.ones(shape))

    def test_operand_must_be_1d_or_2d(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        for operand in (np.float64(1.0), np.ones((3, 1, 1))):
            with pytest.raises(ValidationError, match="1-D or 2-D"):
                csr_sweep_matvec(csr.data, csr.sweep_plan, operand)


def sweep_with_indices(kind, indices, operand):
    """Plan and run one of the four sweeps over three rows of one entry each."""
    data = np.ones(3)
    indices = np.asarray(indices, dtype=np.int64)
    shape = (3, operand.shape[0])
    if kind == "csr":
        plan = build_sweep_plan([0, 1, 2, 3], indices, shape)
        if operand.ndim == 1:
            return csr_sweep_matvec(data, plan, operand)
        return csr_sweep_matmat(data, plan, operand)
    plan = build_sweep_plan([0, 1, 2, 3], indices[:, None], shape)
    if operand.ndim == 1:
        return ell_sweep_matvec(data[:, None], plan, operand)
    return ell_sweep_matmat(data[:, None], plan, operand)


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
        # An ELL padded slot reads x[0], so a pattern without columns has
        # no plan, and a one-column plan sweeps no empty operand.
        padding = np.zeros((2, 1), dtype=np.int64)
        with pytest.raises(ValidationError, match="column index out of range"):
            build_sweep_plan([0, 1, 2], padding, (2, 0))
        plan = build_sweep_plan([0, 1, 2], padding, (2, 1))
        with pytest.raises(ShapeError):
            ell_sweep_matvec(np.zeros((2, 1)), plan, np.ones(0))


class TestRowPointer:
    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            build_sweep_plan([0, 2, 1, 3], [0, 1, 2], (3, 3))

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, nnz\]"):
            build_sweep_plan([-1, 1, 2, 3], [0, 1, 2], (3, 3))

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            build_sweep_plan([0, 1, 2], [0, 1], (3, 3))

    def test_plan_keeps_a_private_read_only_copy(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)
        indices = np.array([1, 0, 2], dtype=np.int64)
        plan = build_sweep_plan(indptr, indices, (2, 3))
        indptr[1] = 5
        indices[0] = 7
        np.testing.assert_array_equal(plan.indptr, [0, 1, 3])
        np.testing.assert_array_equal(plan.indices, [1, 0, 2])
        assert not plan.indptr.flags.writeable
        assert not plan.indices.flags.writeable
        assert plan.nnz == 3 and plan.n_rows == 2 and plan.n_cols == 3


class TestOneColumnPanel:
    """A ``(D, 1)`` panel runs the vector loop, with the vector sweep's bits."""

    @staticmethod
    def _matrix():
        rng = np.random.default_rng(11)
        fill = rng.random((1000, 1000)) < 0.01
        dense = np.where(fill, rng.standard_normal((1000, 1000)), 0.0)
        return CSRMatrix.from_dense(dense), rng.standard_normal(1000)

    def test_one_column_equals_the_vector_sweep(self):
        csr, x = self._matrix()
        panel = csr_sweep_matmat(csr.data, csr.sweep_plan, x[:, None])
        assert panel.shape == (1000, 1)
        vector = csr_sweep_matvec(csr.data, csr.sweep_plan, x)
        assert panel[:, 0].tobytes() == vector.tobytes()
        # The F-ordered one-row transpose a recursion hands over, too.
        rows = np.ascontiguousarray(x[None, :])
        transposed = csr_sweep_matmat(csr.data, csr.sweep_plan, rows.T)
        assert transposed.tobytes() == panel.tobytes()

    def test_one_column_skips_the_block_loop(self, monkeypatch):
        from scipy.sparse import _sparsetools

        def refuse(*args):
            raise AssertionError("a one-column panel ran the block loop")

        csr, x = self._matrix()
        monkeypatch.setattr(_sparsetools, "csr_matvecs", refuse)
        csr_sweep_matmat(csr.data, csr.sweep_plan, x[:, None])
        with pytest.raises(AssertionError, match="block loop"):
            csr_sweep_matmat(csr.data, csr.sweep_plan, np.stack([x, x], axis=1))
