"""Dense operator with the same protocol as :class:`repro.sparse.CSRMatrix`.

The paper's measured configuration stores the Hamiltonian densely
("the CRS format is not applied"), so the benchmark figures run through
this operator.  It is a thin wrapper over a C-contiguous float64 array.
Its products run :func:`repro.sparse.sweep.dense_sweep_matvec` rather
than BLAS ``gemv``, whose blocking reorders the sums, so they are
bit-identical to the CSR and ELL operators holding the same matrix.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.sweep import _CheckedProducts, dense_sweep_matmat, dense_sweep_matvec
from repro.util.validation import as_float64_array

__all__ = ["DenseOperator"]


class DenseOperator(_CheckedProducts):
    """A dense square matrix exposing the library's operator protocol."""

    __slots__ = ("array", "shape")

    def __init__(self, array):
        arr = as_float64_array(array, "array")
        if arr.ndim != 2:
            raise ShapeError(f"array must be 2-D, got shape {arr.shape}")
        self.array = arr
        self.shape = arr.shape

    # ------------------------------------------------------------------
    @property
    def nnz_stored(self) -> int:
        """Stored entries — all of them, dense storage keeps every element."""
        return int(self.array.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the dense array."""
        return int(self.array.nbytes)

    def fingerprint(self) -> str:
        """Stable content hash of the dense matrix (cache key material).

        Tagged ``"dense"``: a dense operator and a CSR operator holding
        the same matrix intentionally do *not* collide, because their
        kernels use different floating-point reduction orders and the
        :mod:`repro.serve` cache guarantees bit-identical replays.
        """
        from repro.sparse.csr import content_fingerprint

        return content_fingerprint("dense", self.shape, self.array)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DenseOperator(shape={self.shape})"

    # ------------------------------------------------------------------
    def _sweep_matvec(self, x) -> np.ndarray:
        return dense_sweep_matvec(self.array, x)

    def _sweep_matmat(self, block) -> np.ndarray:
        return dense_sweep_matmat(self.array, block)

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.array

    def to_csr(self):
        """Convert to :class:`repro.sparse.CSRMatrix` (drops exact zeros)."""
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix.from_dense(self.array)

    def transpose(self) -> "DenseOperator":
        """Return ``A.T`` (contiguous copy)."""
        return DenseOperator(np.ascontiguousarray(self.array.T))

    def scale_shift(self, scale: float, shift: float) -> "DenseOperator":
        """Return ``scale * A + shift * I``."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"scale_shift requires a square matrix, got {self.shape}")
        if not np.isfinite(scale) or not np.isfinite(shift):
            raise ValidationError("scale and shift must be finite")
        out = self.array * scale
        out[np.diag_indices(self.shape[0])] += shift
        return DenseOperator(out)

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """The main diagonal."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"diagonal requires a square matrix, got {self.shape}")
        return np.ascontiguousarray(np.diagonal(self.array))

    def offdiag_abs_row_sums(self) -> np.ndarray:
        """``sum_j |a_ij|`` over off-diagonal entries of each row."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(
                f"offdiag_abs_row_sums requires a square matrix, got {self.shape}"
            )
        sums = np.abs(self.array).sum(axis=1)
        return sums - np.abs(np.diagonal(self.array))

    def is_symmetric(self, tolerance: float = 0.0) -> bool:
        """True if ``|A - A.T|`` never exceeds ``tolerance`` entrywise."""
        if self.shape[0] != self.shape[1]:
            return False
        return bool(
            np.max(np.abs(self.array - self.array.T), initial=0.0) <= tolerance
        )
