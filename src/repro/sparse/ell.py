"""ELLPACK/ITPACK (ELL) sparse storage for width-regular matrices.

ELL stores a fixed ``width = max_row_nnz`` slots per row in two dense
``(n_rows, width)`` arrays — values and column indices — padding short
rows with ``data 0.0`` at index ``0``.  A thread-per-row GPU kernel then
streams both arrays column-major with perfectly coalesced accesses, the
classic reason ELL beats CSR on uniform-stencil lattice Hamiltonians
(and loses badly when one long row pads every other row).

The padded slots are numerically invisible: the canonical sweep
(:mod:`repro.sparse.sweep`) absorbs their ``0.0 * x`` products exactly,
so an :class:`ELLMatrix` produces bit-identical results to the CSR and
dense operators holding the same matrix.  The constructor checks the
slot pattern once into a :class:`repro.sparse.sweep.SweepPlan` (a
uniform-width CSR pattern, padding included); ``indices`` is a
read-only view of that plan's array, while ``data`` stays writable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix, content_fingerprint
from repro.sparse.sweep import (
    _CheckedProducts,
    build_sweep_plan,
    ell_sweep_matmat,
    ell_sweep_matvec,
)

__all__ = ["ELLMatrix"]


class ELLMatrix(_CheckedProducts):
    """Sparse matrix in ELL format (float64 data, int64 indices).

    Parameters
    ----------
    data:
        ``(n_rows, width)`` stored values; padded slots hold ``0.0``.
    indices:
        ``(n_rows, width)`` column index per slot; within each row the
        first ``row_nnz[i]`` indices must be strictly increasing
        (canonical order) and padded slots must hold ``0``.
    row_nnz:
        Stored entries per row (``<= width`` each); slots beyond it are
        padding.
    shape:
        ``(n_rows, n_cols)``.
    """

    __slots__ = ("data", "row_nnz", "shape", "_plan")

    def __init__(self, data, indices, row_nnz, shape: tuple[int, int]):
        data = np.asarray(data, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        row_nnz = np.asarray(row_nnz, dtype=np.int64).ravel()
        if len(shape) != 2:
            raise ShapeError(f"shape must be (n_rows, n_cols), got {shape!r}")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows <= 0 or n_cols <= 0:
            raise ValidationError(f"shape must be positive, got {shape!r}")
        if data.ndim != 2 or data.shape[0] != n_rows:
            raise ShapeError(
                f"data must have shape ({n_rows}, width), got {data.shape}"
            )
        if indices.shape != data.shape:
            raise ShapeError(
                f"indices shape {indices.shape} must match data shape {data.shape}"
            )
        if row_nnz.shape[0] != n_rows:
            raise ShapeError(
                f"row_nnz must have length {n_rows}, got {row_nnz.shape[0]}"
            )
        width = data.shape[1]
        if row_nnz.size and (row_nnz.min() < 0 or row_nnz.max() > width):
            raise ValidationError(
                f"row_nnz entries must lie in [0, width={width}]"
            )
        plan = build_sweep_plan(
            np.arange(n_rows + 1, dtype=np.int64) * width, indices, (n_rows, n_cols)
        )
        indices = plan.indices.reshape(data.shape)
        slot = np.arange(width, dtype=np.int64)[None, :]
        stored = slot < row_nnz[:, None]
        if width > 1:
            increasing = np.diff(indices, axis=1) > 0
            if not np.all(increasing[stored[:, 1:]]):
                raise ValidationError(
                    "column indices must be strictly increasing within each "
                    "row's stored slots (canonical ELL order)"
                )
        padded = ~stored
        if np.any(indices[padded] != 0) or np.any(data[padded] != 0.0):
            raise ValidationError(
                "padded slots must hold data 0.0 at column index 0"
            )
        if data.size and not np.all(np.isfinite(data)):
            raise ValidationError("data must be finite")
        self._plan = plan
        self.data = data
        self.row_nnz = row_nnz
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "ELLMatrix":
        """Pack a :class:`CSRMatrix` into ELL slots (same entry order)."""
        if not isinstance(csr, CSRMatrix):
            raise ValidationError(
                f"csr must be a CSRMatrix, got {type(csr).__name__}"
            )
        n_rows = csr.shape[0]
        row_nnz = np.diff(csr.indptr)
        width = int(row_nnz.max(initial=0))
        data = np.zeros((n_rows, width), dtype=np.float64)
        indices = np.zeros((n_rows, width), dtype=np.int64)
        if width:
            slot = np.arange(width, dtype=np.int64)[None, :]
            stored = slot < row_nnz[:, None]
            data[stored] = csr.data
            indices[stored] = csr.indices
        return cls(data, indices, row_nnz, csr.shape)

    @classmethod
    def from_dense(cls, dense, *, tolerance: float = 0.0) -> "ELLMatrix":
        """Build from a dense array, dropping ``|a_ij| <= tolerance``."""
        return cls.from_csr(CSRMatrix.from_dense(dense, tolerance=tolerance))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sweep_plan(self):
        """The checked :class:`repro.sparse.sweep.SweepPlan` of the slots."""
        return self._plan

    @property
    def indices(self) -> np.ndarray:
        """``(n_rows, width)`` column index per slot (read-only)."""
        return self._plan.indices.reshape(self.shape[0], -1)

    @property
    def width(self) -> int:
        """Slots per row (``max_row_nnz`` of the packed matrix)."""
        return int(self.data.shape[1])

    @property
    def nnz_stored(self) -> int:
        """Stored (non-padding) entries."""
        return int(self.row_nnz.sum())

    @property
    def nbytes(self) -> int:
        """Bytes held by the two slot arrays (padding included)."""
        return int(self.data.nbytes + self.indices.nbytes)

    @property
    def padding_fraction(self) -> float:
        """Fraction of slots that are padding (0.0 for uniform rows)."""
        slots = self.data.size
        if slots == 0:
            return 0.0
        return float((slots - self.nnz_stored) / slots)

    @property
    def max_row_nnz(self) -> int:
        """Largest number of stored entries in any single row."""
        return int(self.row_nnz.max(initial=0))

    def fingerprint(self) -> str:
        """Stable content hash of the stored matrix (cache key material)."""
        return content_fingerprint(
            "ell", self.shape, self.data, self.indices, self.row_nnz
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ELLMatrix(shape={self.shape}, width={self.width}, "
            f"nnz_stored={self.nnz_stored})"
        )

    # ------------------------------------------------------------------
    # Linear algebra (canonical sweep — bit-identical to CSR and dense)
    # ------------------------------------------------------------------
    def _sweep_matvec(self, x) -> np.ndarray:
        return ell_sweep_matvec(self.data, self._plan, x)

    def _sweep_matmat(self, block) -> np.ndarray:
        return ell_sweep_matmat(self.data, self._plan, block)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRMatrix:
        """Convert back to :class:`CSRMatrix` (drops the padding)."""
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.row_nnz, out=indptr[1:])
        slot = np.arange(self.width, dtype=np.int64)[None, :]
        stored = slot < self.row_nnz[:, None]
        return CSRMatrix(
            indptr, self.indices[stored], self.data[stored], self.shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        return self.to_csr().to_dense()

    def transpose(self) -> "ELLMatrix":
        """Return ``A.T`` as a new ELL matrix."""
        return ELLMatrix.from_csr(self.to_csr().transpose())

    def scale_shift(self, scale: float, shift: float) -> "ELLMatrix":
        """Return ``scale * A + shift * I``, staying in ELL format."""
        return ELLMatrix.from_csr(self.to_csr().scale_shift(scale, shift))

    # ------------------------------------------------------------------
    # Spectral helpers
    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"diagonal requires a square matrix, got {self.shape}")
        return self.to_csr().diagonal()

    def offdiag_abs_row_sums(self) -> np.ndarray:
        """``sum_j |a_ij|`` over off-diagonal entries of each row."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(
                f"offdiag_abs_row_sums requires a square matrix, got {self.shape}"
            )
        return self.to_csr().offdiag_abs_row_sums()

    def is_symmetric(self, tolerance: float = 0.0) -> bool:
        """True if ``|A - A.T|`` never exceeds ``tolerance`` entrywise."""
        if self.shape[0] != self.shape[1]:
            return False
        return self.to_csr().is_symmetric(tolerance)
