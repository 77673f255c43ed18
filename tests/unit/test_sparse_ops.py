"""Unit tests for repro.sparse.ops (protocol coercion)."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    DenseOperator,
    ELLMatrix,
    LinearOperatorProtocol,
    as_operator,
    is_operator,
)


class TestAsOperator:
    def test_ndarray_wraps_dense(self):
        op = as_operator(np.eye(3))
        assert isinstance(op, DenseOperator)

    def test_csr_passthrough(self):
        csr = CSRMatrix.identity(3)
        assert as_operator(csr) is csr

    def test_dense_passthrough(self):
        dense = DenseOperator(np.eye(2))
        assert as_operator(dense) is dense

    def test_coo_converted_to_csr(self):
        coo = COOMatrix([0], [0], [1.0], (2, 2))
        op = as_operator(coo)
        assert isinstance(op, CSRMatrix)

    def test_list_input(self):
        op = as_operator([[1.0, 0.0], [0.0, 1.0]])
        assert op.shape == (2, 2)

    def test_rejects_nonsquare_by_default(self):
        with pytest.raises(ShapeError):
            as_operator(np.ones((2, 3)))

    def test_allows_nonsquare_when_asked(self):
        op = as_operator(np.ones((2, 3)), require_square=False)
        assert op.shape == (2, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            as_operator("not a matrix")


class TestIsOperator:
    def test_true_for_library_types(self):
        assert is_operator(CSRMatrix.identity(2))
        assert is_operator(DenseOperator(np.eye(2)))

    def test_nominal_types_also_match_the_protocol(self):
        # The nominal fast path must never accept what the structural
        # check would reject.
        for op in (
            CSRMatrix.identity(2),
            ELLMatrix.from_csr(CSRMatrix.identity(2)),
            DenseOperator(np.eye(2)),
        ):
            assert is_operator(op)
            assert isinstance(op, LinearOperatorProtocol)

    def test_foreign_type_is_checked_structurally(self):
        class Wrapped:
            def __init__(self, op):
                self.shape = op.shape
                for name in ("matvec", "matmat", "to_dense", "diagonal",
                             "offdiag_abs_row_sums"):
                    setattr(self, name, getattr(op, name))
                self.nnz_stored = op.nnz_stored
                self.nbytes = op.nbytes

        full = Wrapped(CSRMatrix.identity(2))
        assert is_operator(full)
        del full.matmat
        assert not is_operator(full)

    def test_false_for_ndarray(self):
        assert not is_operator(np.eye(2))
