"""Operator protocol and coercion helpers.

The KPM engines accept "anything matrix-like": a raw ``ndarray``, a
:class:`~repro.sparse.CSRMatrix`, a :class:`~repro.sparse.COOMatrix`, or a
:class:`~repro.sparse.DenseOperator`.  :func:`as_operator` normalizes these
into the common protocol.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.dense import DenseOperator
from repro.sparse.ell import ELLMatrix

__all__ = ["LinearOperatorProtocol", "as_operator", "is_operator"]


@runtime_checkable
class LinearOperatorProtocol(Protocol):
    """Structural type implemented by all matrix representations here."""

    shape: tuple[int, int]

    @property
    def nnz_stored(self) -> int: ...

    @property
    def nbytes(self) -> int: ...

    def matvec(self, x) -> np.ndarray: ...

    def matmat(self, block) -> np.ndarray: ...

    def to_dense(self) -> np.ndarray: ...

    def diagonal(self) -> np.ndarray: ...

    def offdiag_abs_row_sums(self) -> np.ndarray: ...


#: The library's own operator classes, recognized by nominal type.
_NOMINAL_OPERATORS = (CSRMatrix, ELLMatrix, DenseOperator)


def is_operator(obj) -> bool:  # repro: noqa[RA005] -- pure predicate, never raises
    """True if ``obj`` already implements the operator protocol.

    The library's own classes (:class:`~repro.sparse.CSRMatrix`,
    :class:`~repro.sparse.ELLMatrix`, :class:`~repro.sparse.DenseOperator`)
    answer by nominal type, which is a plain ``isinstance``.  Any other
    type gets the structural check against the runtime-checkable
    :class:`LinearOperatorProtocol`, which walks the protocol's members
    on every call.  That verdict is not cached per type: the structural
    check reads instance attributes, so two instances of one foreign
    type can answer differently.
    """
    return isinstance(obj, _NOMINAL_OPERATORS) or isinstance(
        obj, LinearOperatorProtocol
    )


def as_operator(matrix, *, require_square: bool = True):
    """Coerce ``matrix`` into the library's operator protocol.

    Parameters
    ----------
    matrix:
        ``ndarray`` (wrapped in :class:`~repro.sparse.DenseOperator`),
        :class:`~repro.sparse.COOMatrix` (converted to CSR), or an object
        already implementing the protocol (returned as-is).
    require_square:
        Reject non-square operators — the KPM needs a Hamiltonian.
    """
    from repro.sparse.coo import COOMatrix

    if isinstance(matrix, COOMatrix):
        op = matrix.to_csr()
    elif is_operator(matrix):
        op = matrix
    elif isinstance(matrix, (np.ndarray, list, tuple)) or hasattr(matrix, "__array__"):
        # DenseOperator pins float64 (and rejects complex) via
        # as_float64_array, so no conversion is needed here.
        op = DenseOperator(matrix)
    else:
        raise ValidationError(
            "matrix must be an ndarray, COOMatrix, CSRMatrix, DenseOperator, "
            f"or operator-protocol object; got {type(matrix).__name__}"
        )
    if require_square and op.shape[0] != op.shape[1]:
        raise ShapeError(f"operator must be square, got shape {op.shape}")
    return op
