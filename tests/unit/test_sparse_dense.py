"""Unit tests for repro.sparse.DenseOperator."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.sparse import DenseOperator


class TestConstruction:
    def test_basic(self):
        op = DenseOperator(np.eye(3))
        assert op.shape == (3, 3)
        assert op.nnz_stored == 9

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            DenseOperator(np.ones(3))

    def test_rejects_complex(self):
        with pytest.raises(ValidationError):
            DenseOperator(np.eye(2, dtype=complex))

    def test_converts_dtype(self):
        op = DenseOperator(np.eye(2, dtype=np.int32))
        assert op.array.dtype == np.float64


class TestLinearAlgebra:
    def test_matvec(self, rng):
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(DenseOperator(a).matvec(x), a @ x)

    def test_matvec_shape_check(self):
        with pytest.raises(ShapeError):
            DenseOperator(np.eye(3)).matvec(np.ones(2))

    def test_matmat(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose(DenseOperator(a).matmat(b), a @ b)

    def test_dot_dispatch(self, rng):
        a = rng.standard_normal((3, 3))
        op = DenseOperator(a)
        np.testing.assert_allclose(op @ np.ones(3), a @ np.ones(3))
        with pytest.raises(ShapeError):
            op.dot(np.ones((2, 2, 2)))


class TestTransforms:
    def test_scale_shift(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = DenseOperator(a).scale_shift(2.0, -1.0)
        np.testing.assert_allclose(result.to_dense(), 2 * a - np.eye(2))

    @pytest.mark.parametrize("scale, shift", [(np.inf, 0.0), (1.0, np.nan)])
    def test_scale_shift_rejects_non_finite(self, scale, shift):
        with pytest.raises(ValidationError, match="finite"):
            DenseOperator(np.eye(2)).scale_shift(scale, shift)

    def test_scale_shift_does_not_mutate_original(self):
        a = np.eye(2)
        op = DenseOperator(a.copy())
        op.scale_shift(3.0, 1.0)
        np.testing.assert_array_equal(op.to_dense(), np.eye(2))

    def test_transpose(self, rng):
        a = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(DenseOperator(a).transpose().to_dense(), a.T)

    def test_to_csr(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        csr = DenseOperator(a).to_csr()
        assert csr.nnz_stored == 1
        np.testing.assert_array_equal(csr.to_dense(), a)


class TestSpectralHelpers:
    def test_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(DenseOperator(a).diagonal(), [1, 2, 3])

    def test_offdiag_abs_row_sums(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            DenseOperator(a).offdiag_abs_row_sums(), [2.0, 3.0]
        )

    def test_is_symmetric(self):
        assert DenseOperator(np.eye(2)).is_symmetric()
        assert not DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]])).is_symmetric()
