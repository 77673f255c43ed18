"""Unit tests for ELL storage (repro.sparse.ell)."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sparse import CSRMatrix, ELLMatrix


def sample_dense():
    return np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )


class TestConstruction:
    def test_from_csr_roundtrip(self):
        dense = sample_dense()
        ell = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
        np.testing.assert_array_equal(ell.to_dense(), dense)
        assert ell.width == 3
        assert ell.nnz_stored == 10
        assert ell.shape == (4, 4)

    def test_from_dense_matches_from_csr(self):
        dense = sample_dense()
        via_csr = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
        direct = ELLMatrix.from_dense(dense)
        assert direct.fingerprint() == via_csr.fingerprint()

    def test_to_ell_method_on_csr(self):
        csr = CSRMatrix.from_dense(sample_dense())
        ell = csr.to_ell()
        assert isinstance(ell, ELLMatrix)
        np.testing.assert_array_equal(ell.to_dense(), csr.to_dense())

    def test_to_csr_drops_padding(self):
        csr = CSRMatrix.from_dense(sample_dense())
        back = csr.to_ell().to_csr()
        np.testing.assert_array_equal(back.indptr, csr.indptr)
        np.testing.assert_array_equal(back.indices, csr.indices)
        np.testing.assert_array_equal(back.data, csr.data)

    def test_empty_rows_pack_as_padding(self):
        dense = np.zeros((3, 3))
        dense[1, 2] = 5.0
        ell = ELLMatrix.from_dense(dense)
        assert ell.width == 1
        assert ell.nnz_stored == 1
        np.testing.assert_array_equal(ell.row_nnz, [0, 1, 0])
        np.testing.assert_array_equal(ell.to_dense(), dense)

    def test_all_zero_matrix_has_zero_width(self):
        ell = ELLMatrix.from_dense(np.zeros((3, 3)))
        assert ell.width == 0
        assert ell.nnz_stored == 0
        np.testing.assert_array_equal(ell.to_dense(), np.zeros((3, 3)))


class TestValidation:
    def test_rejects_non_csr_in_from_csr(self):
        with pytest.raises(ValidationError, match="CSRMatrix"):
            ELLMatrix.from_csr(sample_dense())

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            ELLMatrix(np.zeros((2, 1)), np.zeros((2, 1)), [1, 1], (2, 2, 2))

    def test_rejects_row_nnz_above_width(self):
        with pytest.raises(ValidationError, match="row_nnz"):
            ELLMatrix(np.ones((2, 1)), np.zeros((2, 1)), [2, 1], (2, 2))

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValidationError, match="column index"):
            ELLMatrix(np.ones((2, 1)), [[0], [5]], [1, 1], (2, 2))

    def test_rejects_unsorted_stored_indices(self):
        data = np.ones((1, 2))
        indices = np.array([[1, 0]])
        with pytest.raises(ValidationError, match="strictly increasing"):
            ELLMatrix(data, indices, [2], (1, 2))

    def test_rejects_dirty_padding(self):
        data = np.array([[1.0, 7.0]])
        indices = np.array([[0, 0]])
        with pytest.raises(ValidationError, match="padded slots"):
            ELLMatrix(data, indices, [1], (1, 2))

    def test_rejects_nonfinite_data(self):
        with pytest.raises(ValidationError, match="finite"):
            ELLMatrix([[np.inf]], [[0]], [1], (1, 1))

    def test_matvec_shape_check(self):
        ell = ELLMatrix.from_dense(sample_dense())
        with pytest.raises(ShapeError):
            ell.matvec(np.ones(3))
        with pytest.raises(ShapeError):
            ell.matmat(np.ones((3, 2)))


class TestStats:
    def test_padding_fraction_uniform_rows_is_zero(self):
        # Periodic cubic lattice: every row stores onsite + 6 neighbours.
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        assert csr.to_ell().padding_fraction == 0.0

    def test_padding_fraction_counts_empty_slots(self):
        ell = ELLMatrix.from_dense(sample_dense())
        # 4 rows x width 3 = 12 slots, 10 stored.
        assert ell.padding_fraction == pytest.approx(2.0 / 12.0)

    def test_max_row_nnz(self):
        ell = ELLMatrix.from_dense(sample_dense())
        assert ell.max_row_nnz == 3

    def test_nbytes_includes_padding(self):
        ell = ELLMatrix.from_dense(sample_dense())
        assert ell.nbytes == 4 * 3 * (8 + 8)

    def test_fingerprint_distinguishes_values(self):
        a = ELLMatrix.from_dense(sample_dense())
        perturbed = sample_dense()
        perturbed[0, 0] = 3.0
        b = ELLMatrix.from_dense(perturbed)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ELLMatrix.from_dense(sample_dense()).fingerprint()


class TestLinearAlgebra:
    def test_matvec_bit_identical_to_csr(self):
        csr = tight_binding_hamiltonian(chain(17), format="csr")
        ell = csr.to_ell()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(17)
        np.testing.assert_array_equal(ell.matvec(x), csr.matvec(x))

    def test_matmat_bit_identical_to_csr(self):
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        ell = csr.to_ell()
        rng = np.random.default_rng(4)
        block = rng.standard_normal((27, 3))
        np.testing.assert_array_equal(ell.matmat(block), csr.matmat(block))

    def test_dot_and_matmul_dispatch(self):
        ell = ELLMatrix.from_dense(sample_dense())
        x = np.arange(4.0)
        np.testing.assert_array_equal(ell.dot(x), ell.matvec(x))
        np.testing.assert_array_equal(ell @ x, ell.matvec(x))
        with pytest.raises(ShapeError):
            ell.dot(np.ones((2, 2, 2)))


class TestPatternIsFixed:
    """The checked slot pattern cannot change under a sweep; the values can."""

    def test_pattern_written_in_place_raises(self):
        ell = ELLMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        x = np.array([1.0, 10.0])
        np.testing.assert_array_equal(ell.matvec(x), [21.0, 30.0])
        with pytest.raises(ValueError, match="read-only"):
            ell.indices[1, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ell.sweep_plan.indptr[1] = 1
        with pytest.raises(AttributeError):
            ell.indices = np.zeros((2, 2), dtype=np.int64)
        np.testing.assert_array_equal(ell.matvec(x), ell.to_dense() @ x)
        np.testing.assert_array_equal(ell.matvec(x), [21.0, 30.0])
        ell.data[0, 0] = 5.0
        np.testing.assert_array_equal(ell.matvec(x), [25.0, 30.0])

    def test_constructor_keeps_its_own_pattern(self):
        indices = np.array([[0, 1], [1, 0]])
        ell = ELLMatrix([[1.0, 2.0], [3.0, 0.0]], indices, [2, 1], (2, 2))
        indices[1, 0] = 0
        np.testing.assert_array_equal(ell.indices, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(ell.sweep_plan.indptr, [0, 2, 4])


class TestTransformations:
    def test_transpose_involution(self):
        dense = np.triu(sample_dense())
        ell = ELLMatrix.from_dense(dense)
        np.testing.assert_array_equal(ell.transpose().to_dense(), dense.T)
        np.testing.assert_array_equal(
            ell.transpose().transpose().to_dense(), dense
        )

    def test_scale_shift_matches_dense(self):
        dense = sample_dense()
        out = ELLMatrix.from_dense(dense).scale_shift(0.5, -1.0)
        assert isinstance(out, ELLMatrix)
        np.testing.assert_allclose(
            out.to_dense(), 0.5 * dense - 1.0 * np.eye(4)
        )

    def test_diagonal_and_symmetry(self):
        ell = ELLMatrix.from_dense(sample_dense())
        np.testing.assert_array_equal(ell.diagonal(), np.full(4, 2.0))
        assert ell.is_symmetric()
        assert not ELLMatrix.from_dense(np.triu(sample_dense())).is_symmetric()

    def test_offdiag_abs_row_sums(self):
        ell = ELLMatrix.from_dense(sample_dense())
        np.testing.assert_array_equal(
            ell.offdiag_abs_row_sums(), np.array([1.0, 2.0, 2.0, 1.0])
        )
