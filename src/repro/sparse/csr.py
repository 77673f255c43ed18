"""Compressed Row Storage (CRS/CSR) sparse matrix with vectorized kernels.

This is the format the paper's Sec. II-A4 refers to: row pointers
(``indptr``), column indices (``indices``) and values (``data``).  The
sparse Hamiltonian of the 10x10x10 cubic lattice has exactly seven
non-zeros per row in this format.

The SpMV (``matvec``) and blocked SpMM (``matmat``) run the *canonical
contraction order* of :mod:`repro.sparse.sweep` — per row, a strict
left-to-right accumulation over ascending stored columns — so CSR
results are bit-identical to the dense and ELL operators holding the
same matrix, and the autotuner may switch formats freely.  The slot
schedule (:class:`repro.sparse.sweep.SweepPlan`) is built lazily on
first use and cached on the instance.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.sweep import build_sweep_plan, csr_sweep_matmat, csr_sweep_matvec
from repro.util.validation import check_positive_int

__all__ = ["CSRMatrix", "content_fingerprint"]


def content_fingerprint(tag: str, shape: tuple[int, int], *arrays) -> str:
    """SHA-256 hex digest of an operator's exact stored content.

    The digest covers the storage ``tag`` (different storage formats run
    different floating-point reduction orders, so they must never share a
    cache entry), the shape, and the raw bytes of every array — equal
    content always collides, any single-bit perturbation does not.
    """
    if not isinstance(tag, str) or not tag:
        raise ValidationError(f"tag must be a non-empty string, got {tag!r}")
    digest = hashlib.sha256()
    digest.update(tag.encode("ascii"))
    digest.update(np.asarray(shape, dtype=np.int64).tobytes())
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class CSRMatrix:
    """Sparse matrix in CSR format (float64 data, int64 indices).

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``; ``indptr[0] == 0`` and
        ``indptr[-1] == nnz``; must be non-decreasing.
    indices:
        Column index of each stored entry, grouped by row.  Within each row
        the indices must be strictly increasing (canonical CSR) — the
        constructor verifies this.
    data:
        Stored values, one per entry.
    shape:
        ``(n_rows, n_cols)``.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_sweep_plan")

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        indptr = np.asarray(indptr, dtype=np.int64).ravel()
        indices = np.asarray(indices, dtype=np.int64).ravel()
        data = np.asarray(data, dtype=np.float64).ravel()
        if len(shape) != 2:
            raise ShapeError(f"shape must be (n_rows, n_cols), got {shape!r}")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows <= 0 or n_cols <= 0:
            raise ValidationError(f"shape must be positive, got {shape!r}")
        if indptr.shape[0] != n_rows + 1:
            raise ShapeError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {indptr.shape[0]}"
            )
        if indptr[0] != 0:
            raise ValidationError("indptr[0] must be 0")
        if indptr[-1] != data.shape[0] or indices.shape[0] != data.shape[0]:
            raise ShapeError(
                "indices/data length must equal indptr[-1]: "
                f"{indices.shape[0]}, {data.shape[0]} vs {int(indptr[-1])}"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n_cols:
                raise ValidationError("column index out of range")
            # Strictly increasing within each row <=> the only places where
            # the flat index sequence may decrease are row boundaries.
            decreases = np.flatnonzero(np.diff(indices) <= 0) + 1
            if decreases.size:
                row_starts = set(indptr[1:-1].tolist())
                bad = [int(i) for i in decreases if int(i) not in row_starts]
                if bad:
                    raise ValidationError(
                        "column indices must be strictly increasing within "
                        f"each row (violation at flat position {bad[0]})"
                    )
        if data.size and not np.all(np.isfinite(data)):
            raise ValidationError("data must be finite")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (n_rows, n_cols)
        self._sweep_plan = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, *, tolerance: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= tolerance``.

        Raises :class:`~repro.errors.ValidationError` on a NaN or infinite
        entry.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"dense must be 2-D, got shape {dense.shape}")
        if tolerance < 0:
            raise ValidationError(f"tolerance must be >= 0, got {tolerance}")
        # |NaN| > tolerance is False: without this check a NaN would be
        # dropped as a structural zero, out of reach of the finiteness
        # check in __init__.
        if not np.all(np.isfinite(dense)):
            raise ValidationError("dense must be finite")
        mask = np.abs(dense) > tolerance
        rows, cols = np.nonzero(mask)
        n_rows = dense.shape[0]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols.astype(np.int64), dense[mask], dense.shape)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The ``n x n`` identity matrix."""
        n = check_positive_int(n, "n")
        return cls(
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.float64),
            (n, n),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz_stored(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by ``indptr + indices + data``."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)

    @property
    def max_row_nnz(self) -> int:
        """Largest number of stored entries in any single row."""
        return int(np.diff(self.indptr).max(initial=0))

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row, length ``n_rows``."""
        return np.diff(self.indptr)

    @property
    def density(self) -> float:
        """Stored fraction ``nnz / (n_rows * n_cols)``."""
        return float(self.nnz_stored / (self.shape[0] * self.shape[1]))

    @property
    def bandwidth(self) -> int:
        """Largest ``|col - row|`` over stored entries (0 when empty)."""
        if self.indices.size == 0:
            return 0
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        return int(np.abs(self.indices - rows).max())

    @property
    def row_nnz_mean(self) -> float:
        """Mean stored entries per row."""
        return float(self.nnz_stored / self.shape[0])

    @property
    def row_nnz_var(self) -> float:
        """Population variance of stored entries per row (0 when uniform)."""
        return float(np.var(np.diff(self.indptr)))

    def mean_abs_offset(self) -> float:
        """Mean ``|col - row|`` over stored entries — gather-locality proxy.

        Small offsets mean the SpMV's ``x[indices]`` gather stays inside
        a few cache lines per row; the cost model's
        :func:`repro.gpu.costmodel.gather_miss_fraction` consumes this.
        """
        if self.indices.size == 0:
            return 0.0
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        return float(np.abs(self.indices - rows).mean())

    def fingerprint(self) -> str:
        """Stable content hash of the stored matrix (cache key material).

        Two ``CSRMatrix`` instances holding the same ``indptr``,
        ``indices``, and ``data`` produce the same digest; perturbing any
        stored value changes it.  Used by :mod:`repro.serve` to key the
        moment cache by ``(matrix_fingerprint, config_key)``.
        """
        return content_fingerprint(
            "csr", self.shape, self.indptr, self.indices, self.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRMatrix(shape={self.shape}, nnz_stored={self.nnz_stored})"

    # ------------------------------------------------------------------
    # Linear algebra (canonical sweep — bit-identical to dense and ELL)
    # ------------------------------------------------------------------
    @property
    def sweep_plan(self):
        """Cached :class:`repro.sparse.sweep.SweepPlan` for this matrix."""
        if self._sweep_plan is None:
            self._sweep_plan = build_sweep_plan(self.indptr, self.shape[0])
        return self._sweep_plan

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x`` for a vector ``x`` of length ``n_cols``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.shape[1]:
            raise ShapeError(
                f"x must be a vector of length {self.shape[1]}, got shape {x.shape}"
            )
        return csr_sweep_matvec(self.data, self.indices, self.sweep_plan, x)

    def matmat(self, block) -> np.ndarray:
        """Return ``A @ B`` for a ``(n_cols, k)`` block of vectors.

        This is the blocked SpMM the batched KPM recursion uses: each of
        the ``max_row_nnz`` slot passes is one vectorized
        gather-multiply-accumulate over the block — memory traffic
        proportional to ``nnz * k``, in the canonical contraction order.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.shape[1]:
            raise ShapeError(
                f"block must have shape ({self.shape[1]}, k), got {block.shape}"
            )
        return csr_sweep_matmat(self.data, self.indices, self.sweep_plan, block)

    def dot(self, other) -> np.ndarray:
        """Dispatch to :meth:`matvec` or :meth:`matmat` on ``other.ndim``."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise ShapeError(f"operand must be 1-D or 2-D, got shape {other.shape}")

    __matmul__ = dot

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense

    def to_ell(self):
        """Pack into :class:`repro.sparse.ELLMatrix` (width = ``max_row_nnz``)."""
        from repro.sparse.ell import ELLMatrix

        return ELLMatrix.from_csr(self)

    def to_coo(self):
        """Convert to :class:`repro.sparse.COOMatrix`."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        out = COOMatrix(rows, self.indices.copy(), self.data.copy(), self.shape)
        out._deduped = True
        return out

    def transpose(self) -> "CSRMatrix":
        """Return ``A.T`` as a new CSR matrix."""
        return self.to_coo().transpose().to_csr()

    def scale_shift(self, scale: float, shift: float) -> "CSRMatrix":
        """Return ``scale * A + shift * I`` (square matrices only).

        This is the spectral rescaling map ``H -> (H - b) / a`` written as
        ``scale = 1/a, shift = -b/a``.  Diagonal entries absent from the
        sparsity pattern are inserted when ``shift != 0``.
        """
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"scale_shift requires a square matrix, got {self.shape}")
        if not np.isfinite(scale) or not np.isfinite(shift):
            raise ValidationError("scale and shift must be finite")
        if shift == 0.0:
            return CSRMatrix(
                self.indptr.copy(), self.indices.copy(), self.data * scale, self.shape
            )
        coo = self.to_coo()
        n = self.shape[0]
        diag_idx = np.arange(n, dtype=np.int64)
        rows = np.concatenate([coo.rows, diag_idx])
        cols = np.concatenate([coo.cols, diag_idx])
        vals = np.concatenate([coo.values * scale, np.full(n, shift, dtype=np.float64)])
        from repro.sparse.coo import COOMatrix

        return COOMatrix(rows, cols, vals, self.shape).to_csr()

    # ------------------------------------------------------------------
    # Spectral helpers
    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"diagonal requires a square matrix, got {self.shape}")
        diag = np.zeros(self.shape[0], dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        on_diag = rows == self.indices
        diag[rows[on_diag]] = self.data[on_diag]
        return diag

    def offdiag_abs_row_sums(self) -> np.ndarray:
        """``sum_j |a_ij|`` over off-diagonal entries of each row.

        The Gerschgorin circle radii used for the paper's Eq. (9) bounds.
        """
        if self.shape[0] != self.shape[1]:
            raise ShapeError(
                f"offdiag_abs_row_sums requires a square matrix, got {self.shape}"
            )
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        off = rows != self.indices
        sums = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(sums, rows[off], np.abs(self.data[off]))
        return sums

    def is_symmetric(self, tolerance: float = 0.0) -> bool:
        """True if ``|A - A.T|`` never exceeds ``tolerance`` entrywise.

        ``tolerance == 0`` asks for exact symmetry of the stored pattern
        and values.  Otherwise each stored ``a_ij`` is compared with its
        mirror ``a_ji`` (``0.0`` when unstored); an entry stored only in
        ``A.T`` is the mirror of one in ``A``, so this covers the union
        of both patterns and gives the dense formula's verdict without
        building a dense copy.
        """
        if self.shape[0] != self.shape[1]:
            return False
        n = self.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        # Canonical CSR keys ascend; the sentinel n*n ends every search.
        keys = np.append(rows * n + self.indices, n * n)
        mirror = self.indices * n + rows
        positions = np.searchsorted(keys, mirror)
        paired = keys[positions] == mirror
        if tolerance == 0.0:
            return bool(
                paired.all() and np.array_equal(self.data, self.data[positions])
            )
        partner = np.where(paired, np.append(self.data, 0.0)[positions], 0.0)
        return bool(np.max(np.abs(self.data - partner), initial=0.0) <= tolerance)
