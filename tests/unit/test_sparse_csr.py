"""Unit tests for repro.sparse.CSRMatrix."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.lattice import chain, tight_binding_hamiltonian
from repro.sparse import COOMatrix, CSRMatrix, DenseOperator, ELLMatrix


def dense_example():
    return np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = dense_example()
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr.to_dense(), dense)
        assert csr.nnz_stored == 10

    def test_from_dense_tolerance(self):
        dense = np.array([[1.0, 1e-12], [0.0, 2.0]])
        csr = CSRMatrix.from_dense(dense, tolerance=1e-9)
        assert csr.nnz_stored == 2

    def test_from_dense_negative_tolerance(self):
        with pytest.raises(ValidationError):
            CSRMatrix.from_dense(np.eye(2), tolerance=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "convert",
        [
            CSRMatrix.from_dense,
            ELLMatrix.from_dense,
            lambda dense: DenseOperator(dense).to_csr(),
        ],
        ids=["csr", "ell", "dense-to-csr"],
    )
    def test_from_dense_rejects_non_finite(self, bad, convert):
        # |NaN| > tolerance is False, so a NaN used to become a silent
        # structural zero: a finite, wrong matrix.
        dense = tight_binding_hamiltonian(chain(16), format="dense").to_dense().copy()
        dense[3, 4] = dense[4, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            convert(dense)

    def test_identity(self):
        eye = CSRMatrix.identity(5)
        np.testing.assert_array_equal(eye.to_dense(), np.eye(5))

    def test_indptr_wrong_length(self):
        with pytest.raises(ShapeError):
            CSRMatrix([0, 1], [0], [1.0], (2, 2))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            CSRMatrix([1, 1, 2], [0, 1], [1.0, 2.0], (2, 2))

    def test_indptr_decreasing_rejected(self):
        with pytest.raises((ValidationError, ShapeError)):
            CSRMatrix([0, 2, 1], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2))

    def test_duplicate_column_in_row_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            CSRMatrix([0, 2], [1, 1], [1.0, 2.0], (1, 3))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            CSRMatrix([0, 2], [2, 0], [1.0, 2.0], (1, 3))

    def test_column_out_of_range(self):
        with pytest.raises(ValidationError):
            CSRMatrix([0, 1], [5], [1.0], (1, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            CSRMatrix([0, 1], [0], [np.inf], (1, 1))


class TestMatvec:
    def test_matches_dense(self, rng):
        dense = dense_example()
        csr = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(csr.matvec(x), dense @ x)

    def test_empty_rows(self):
        csr = COOMatrix([0, 3], [1, 2], [4.0, 5.0], (4, 4)).to_csr()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(csr.matvec(x), csr.to_dense() @ x)

    def test_all_empty(self):
        csr = COOMatrix([], [], [], (3, 3)).to_csr()
        np.testing.assert_array_equal(csr.matvec(np.ones(3)), np.zeros(3))

    def test_wrong_length_rejected(self):
        csr = CSRMatrix.identity(3)
        with pytest.raises(ShapeError):
            csr.matvec(np.ones(4))

    def test_rectangular(self, rng):
        dense = rng.standard_normal((3, 5))
        dense[np.abs(dense) < 0.5] = 0.0
        csr = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(csr.matvec(x), dense @ x)

    def test_matches_scipy(self, rng):
        import scipy.sparse as sp

        dense = rng.standard_normal((20, 20))
        dense[np.abs(dense) < 1.0] = 0.0
        csr = CSRMatrix.from_dense(dense)
        reference = sp.csr_matrix(dense)
        x = rng.standard_normal(20)
        np.testing.assert_allclose(csr.matvec(x), reference @ x)


class TestPatternIsFixed:
    """The checked pattern cannot change under a sweep; the values can."""

    def test_pattern_written_in_place_raises(self):
        csr = CSRMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        x = np.array([1.0, 10.0])
        np.testing.assert_array_equal(csr.matvec(x), [21.0, 30.0])
        with pytest.raises(ValueError, match="read-only"):
            csr.indptr[1] = 1
        with pytest.raises(ValueError, match="read-only"):
            csr.indices[1] = 0
        with pytest.raises(AttributeError):
            csr.indices = np.array([0, 0, 1])
        np.testing.assert_array_equal(csr.matvec(x), csr.to_dense() @ x)
        np.testing.assert_array_equal(csr.matvec(x), [21.0, 30.0])
        csr.data[0] = 5.0
        np.testing.assert_array_equal(csr.matvec(x), [25.0, 30.0])

    def test_constructor_keeps_its_own_pattern(self):
        indptr = np.array([0, 2, 3])
        indices = np.array([0, 1, 1])
        csr = CSRMatrix(indptr, indices, [1.0, 2.0, 3.0], (2, 2))
        indptr[1] = 1
        indices[1] = 0
        np.testing.assert_array_equal(csr.indptr, [0, 2, 3])
        np.testing.assert_array_equal(csr.indices, [0, 1, 1])
        assert csr.sweep_plan.indices is csr.indices


class TestMatmat:
    def test_matches_dense(self, rng):
        dense = dense_example()
        csr = CSRMatrix.from_dense(dense)
        block = rng.standard_normal((4, 6))
        np.testing.assert_allclose(csr.matmat(block), dense @ block)

    def test_consistent_with_matvec(self, rng):
        dense = dense_example()
        csr = CSRMatrix.from_dense(dense)
        block = rng.standard_normal((4, 3))
        result = csr.matmat(block)
        for k in range(3):
            np.testing.assert_allclose(result[:, k], csr.matvec(block[:, k]))

    def test_empty_rows_block(self):
        csr = COOMatrix([2], [0], [1.5], (4, 4)).to_csr()
        block = np.ones((4, 2))
        expected = np.zeros((4, 2))
        expected[2] = 1.5
        np.testing.assert_array_equal(csr.matmat(block), expected)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            CSRMatrix.identity(3).matmat(np.ones((4, 2)))

    def test_dot_dispatch(self, rng):
        csr = CSRMatrix.from_dense(dense_example())
        vec = rng.standard_normal(4)
        block = rng.standard_normal((4, 2))
        np.testing.assert_allclose(csr.dot(vec), csr.matvec(vec))
        np.testing.assert_allclose(csr @ block, csr.matmat(block))
        with pytest.raises(ShapeError):
            csr.dot(np.ones((2, 2, 2)))


class TestTransforms:
    def test_transpose(self, rng):
        dense = rng.standard_normal((5, 3))
        dense[np.abs(dense) < 0.8] = 0.0
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr.transpose().to_dense(), dense.T)

    def test_scale_shift(self):
        csr = CSRMatrix.from_dense(dense_example())
        result = csr.scale_shift(0.5, -1.0)
        np.testing.assert_allclose(
            result.to_dense(), 0.5 * dense_example() - np.eye(4)
        )

    def test_scale_only_keeps_pattern(self):
        csr = CSRMatrix.from_dense(dense_example())
        result = csr.scale_shift(2.0, 0.0)
        np.testing.assert_array_equal(result.indptr, csr.indptr)
        np.testing.assert_allclose(result.data, csr.data * 2.0)

    def test_scale_shift_inserts_diagonal(self):
        # Matrix with no stored diagonal must gain one under a shift.
        csr = COOMatrix([0, 1], [1, 0], [1.0, 1.0], (2, 2)).to_csr()
        result = csr.scale_shift(1.0, 3.0)
        np.testing.assert_allclose(result.diagonal(), [3.0, 3.0])

    def test_scale_shift_requires_square(self):
        csr = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            csr.scale_shift(1.0, 1.0)

    def test_to_coo_roundtrip(self):
        csr = CSRMatrix.from_dense(dense_example())
        np.testing.assert_array_equal(csr.to_coo().to_csr().to_dense(), dense_example())


class TestSpectralHelpers:
    def test_diagonal(self):
        csr = CSRMatrix.from_dense(dense_example())
        np.testing.assert_array_equal(csr.diagonal(), np.full(4, 2.0))

    def test_diagonal_with_unstored_entries(self):
        csr = COOMatrix([0], [1], [7.0], (2, 2)).to_csr()
        np.testing.assert_array_equal(csr.diagonal(), [0.0, 0.0])

    def test_offdiag_abs_row_sums(self):
        csr = CSRMatrix.from_dense(dense_example())
        np.testing.assert_array_equal(
            csr.offdiag_abs_row_sums(), [1.0, 2.0, 2.0, 1.0]
        )

    def test_is_symmetric_true(self):
        assert CSRMatrix.from_dense(dense_example()).is_symmetric()

    def test_is_symmetric_false(self):
        assert not CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]])).is_symmetric()

    def test_is_symmetric_tolerance(self):
        dense = dense_example()
        dense[0, 1] += 1e-12
        csr = CSRMatrix.from_dense(dense)
        assert not csr.is_symmetric()
        assert csr.is_symmetric(tolerance=1e-10)

    def test_rectangular_not_symmetric(self):
        assert not CSRMatrix.from_dense(np.ones((2, 3))).is_symmetric()

    def test_max_row_nnz(self):
        csr = CSRMatrix.from_dense(dense_example())
        assert csr.max_row_nnz == 3

    def test_nbytes_positive(self):
        assert CSRMatrix.identity(4).nbytes > 0
