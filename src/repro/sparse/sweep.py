"""The canonical SpMV contraction order shared by every storage format.

**Why an explicit order.**  The autotuner (:mod:`repro.tune`) picks a
storage format *per matrix*; the serving layer guarantees bit-identical
answers for identical requests.  Those two promises are only compatible
if the storage format is purely a *cost/layout* choice and never a
*numerics* choice — so every operator (host and simulated-device alike)
evaluates ``y = A @ x`` in one canonical floating-point order:

    for each row i:  y[i] = ((0 + a_{i,j1} x_{j1}) + a_{i,j2} x_{j2}) + ...

with the stored columns ``j1 < j2 < ...`` ascending (canonical CSR
order) and a strict left-to-right accumulation.  ``np.add.reduceat``
and BLAS ``gemv`` do **not** honor this order (both use
implementation-defined blocking), so neither computes a sweep here.

**Zero absorption.**  The dense sweep additionally adds the products of
the *unstored* (exactly-zero) entries, and the ELL sweep adds the
products of its padded slots (``data 0.0``, index 0).  Both extras are
``0.0 * x`` terms, i.e. ``+0.0`` or ``-0.0`` for finite ``x``.  IEEE-754
addition absorbs them exactly: ``s + (+/-0.0) == s`` whenever
``s != -0.0``, and a running sum that starts at ``+0.0`` can never reach
``-0.0`` (``a + b`` is ``-0.0`` only when *both* addends are ``-0.0``).
Hence dense, CSR, and ELL sweeps over the same matrix are bit-identical
for finite inputs — the property suite pins this.

**Host cost.**  A CSR or ELL sweep is one call into a compiled row
loop, scipy's ``csr_matvec`` (``csr_matvecs`` for a block of columns),
the routine behind scipy's own ``csr_array @ x``; a one-column block
takes the vector loop, whose sums are the same.  Per row it starts from
the output's ``+0.0`` (allocated with ``np.zeros``) and adds
``data[p] * x[indices[p]]`` over the stored entries left to right,
which is the canonical order: the loop neither reorders the sum nor
contracts a multiply and an add into one FMA.  A scipy build that did
either would change bits, and the property suite, which checks every
sweep against an independent per-row reference byte for byte, would
fail.  ELL's row-major ``(rows, W)`` arrays enter the same loop as a
uniform-width CSR with the padding included, so each padded slot still
adds its ``0.0 * x[0]`` in place, even for a non-finite ``x[0]``.

The compiled loop does no bounds checking, so the pattern it follows
is checked once, when its :class:`SweepPlan` is built: the row pointer
is non-decreasing inside ``[0, nnz]`` and every column index lies in
``[0, n_cols)`` (one unsigned maximum over the index array).  The plan
keeps both arrays as private read-only copies, so no later write can
invalidate the check.  Each sweep then checks only O(1) facts per call
and raises :class:`~repro.errors.ValidationError` (or its subclass
:class:`~repro.errors.ShapeError`) for a plan argument that is not a
:class:`SweepPlan`, values of another length than ``plan.nnz``, an
operand that is not 1-D or 2-D, or an operand whose row count is not
``plan.n_cols``.  The host operators :class:`~repro.sparse.CSRMatrix`
and :class:`~repro.sparse.ELLMatrix` each own one plan, and the device
upload hands that same plan to the device matrix.  The dense sweep
keeps one vectorized multiply-accumulate per column.

**One product surface.**  The host operators (CSR, ELL and dense)
share the shape-checked ``matvec``/``matmat``/``dot``/``@`` of
:class:`_CheckedProducts`; each class supplies only its two sweep calls.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from repro.errors import ShapeError, ValidationError

__all__ = [
    "SweepPlan",
    "build_sweep_plan",
    "csr_sweep_matvec",
    "csr_sweep_matmat",
    "ell_sweep_matvec",
    "ell_sweep_matmat",
    "dense_sweep_matvec",
    "dense_sweep_matmat",
]


class SweepPlan:
    """The checked, immutable sparsity pattern of one CSR or ELL matrix.

    ``indptr`` (length ``n_rows + 1``) and ``indices`` (length ``nnz``)
    are private read-only int64 copies, validated by
    :func:`build_sweep_plan` for the compiled row loop: the row pointer
    is non-decreasing from ``indptr[0] >= 0`` to ``nnz = indptr[-1]``,
    and every column index lies in ``[0, n_cols)``.

    Each plan belongs to the one CSR or ELL operator that built it.
    ``profile`` holds that operator's
    :class:`~repro.sparse.StructureProfile` once
    :func:`repro.sparse.structure_profile` has computed it (``None``
    before), so an unchanged pattern is scanned once.
    """

    __slots__ = ("n_rows", "n_cols", "nnz", "indptr", "indices", "profile")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n_cols: int):
        self.indptr = indptr
        self.indices = indices
        self.n_rows = indptr.shape[0] - 1
        self.n_cols = n_cols
        self.nnz = indices.shape[0]
        self.profile = None


def build_sweep_plan(indptr, indices, shape: tuple[int, int]) -> SweepPlan:
    """Check a sparsity pattern once for the sweeps (see module docstring).

    ``indices`` holds one column index per stored position in row order;
    ELL's ``(rows, W)`` slots are read row-major against the row pointer
    ``arange(rows + 1) * W``.
    """
    n_rows, n_cols = (int(n) for n in shape)
    if n_rows < 0 or n_cols < 0:
        raise ValidationError(f"shape must be non-negative, got {shape!r}")
    indptr = np.array(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
        raise ShapeError(
            f"indptr must have length n_rows+1={n_rows + 1}, got shape {indptr.shape}"
        )
    if np.any(np.diff(indptr) < 0):
        raise ValidationError("indptr must be non-decreasing")
    if indptr[0] < 0:
        raise ValidationError(f"indptr must lie in [0, nnz], got indptr[0]={indptr[0]}")
    indices = np.array(indices, dtype=np.int64).reshape(-1)
    if indices.shape[0] != indptr[-1]:
        raise ShapeError(
            f"indices must have length nnz=indptr[-1]={int(indptr[-1])}, "
            f"got {indices.shape[0]}"
        )
    # Negative indices wrap to huge unsigned values: one max covers both ends.
    if indices.size and indices.view(np.uint64).max() >= n_cols:
        raise ValidationError("column index out of range")
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return SweepPlan(indptr, indices, n_cols)


def _row_loop(data, plan: SweepPlan, operand) -> np.ndarray:
    """Canonical ``A @ operand`` of ``plan``'s pattern in scipy's row loop.

    ``data`` holds one value per position of ``plan`` (``(rows, W)``
    row-major for ELL).  The output starts at ``+0.0``; the loop adds
    each row's products to it left to right.
    """
    if data.size != plan.nnz:
        raise ShapeError(f"plan was built for nnz={plan.nnz}, got {data.size} values")
    dtype = np.result_type(data, operand)
    # np.asarray, not a method call: a sanitized device buffer records
    # the read of its values through the array protocol.
    data = np.asarray(data, dtype=dtype).reshape(-1)
    operand = np.asarray(operand, dtype=dtype)
    if operand.ndim not in (1, 2):
        raise ValidationError(f"operand must be 1-D or 2-D, got shape {operand.shape}")
    if operand.shape[0] != plan.n_cols:
        raise ShapeError(
            f"plan was built for {plan.n_cols} columns, got operand shape {operand.shape}"
        )
    rows, cols = plan.n_rows, plan.n_cols
    if operand.ndim == 1 or operand.shape[1] == 1:
        # A one-column panel runs the vector loop: the same sums, in the
        # same order, for less call overhead than the block loop.  The
        # loop reads and writes flat buffers, so a C-contiguous (n, 1)
        # column serves as the vector.
        out = np.zeros(rows if operand.ndim == 1 else (rows, 1), dtype=dtype)
        _sparsetools.csr_matvec(rows, cols, plan.indptr, plan.indices, data, operand, out)
        return out
    out = np.zeros((rows, operand.shape[1]), dtype=dtype)
    _sparsetools.csr_matvecs(
        rows, cols, operand.shape[1], plan.indptr, plan.indices, data, operand, out
    )
    return out


def csr_sweep_matvec(data, plan: SweepPlan, x) -> np.ndarray:
    """Canonical ``A @ x`` over CSR values and their pattern."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    return _row_loop(data, plan, x)


def csr_sweep_matmat(data, plan: SweepPlan, block) -> np.ndarray:
    """Canonical ``A @ B`` over CSR values, column by column independent."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    return _row_loop(data, plan, block)


def ell_sweep_matvec(ell_data, plan: SweepPlan, x) -> np.ndarray:
    """Canonical ``A @ x`` over ELL values (padded slots absorb exactly)."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    return _row_loop(ell_data, plan, x)


def ell_sweep_matmat(ell_data, plan: SweepPlan, block) -> np.ndarray:
    """Canonical ``A @ B`` over ELL values."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    return _row_loop(ell_data, plan, block)


def dense_sweep_matvec(array, x) -> np.ndarray:
    """Canonical ``A @ x`` over dense storage (every column, ascending)."""
    if array.ndim != 2:
        raise ShapeError(f"array must be 2-D, got shape {array.shape}")
    out = np.zeros(array.shape[0], dtype=np.result_type(array, x))
    for j in range(array.shape[1]):
        out += array[:, j] * x[j]
    return out


def dense_sweep_matmat(array, block) -> np.ndarray:
    """Canonical ``A @ B`` over dense storage."""
    if array.ndim != 2:
        raise ShapeError(f"array must be 2-D, got shape {array.shape}")
    if block.ndim != 2:
        raise ValidationError(f"block must be 2-D, got shape {block.shape}")
    out = np.zeros((array.shape[0], block.shape[1]), dtype=np.result_type(array, block))
    for j in range(array.shape[1]):
        out += array[:, j, None] * block[j, :]
    return out


class _CheckedProducts:
    """Shape-checked ``matvec``/``matmat``/``dot``/``@`` of a host operator.

    Subclasses hold ``shape`` and define ``_sweep_matvec(x)`` and
    ``_sweep_matmat(block)``, which call their format's
    ``*_sweep_matvec`` and ``*_sweep_matmat``.  Operands are coerced to
    float64; a 1-D operand runs the vector sweep and a 2-D one the block
    sweep, whose columns are independent.
    """

    __slots__ = ()

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x`` for a vector ``x`` of length ``n_cols``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.shape[1]:
            raise ShapeError(
                f"x must be a vector of length {self.shape[1]}, got shape {x.shape}"
            )
        return self._sweep_matvec(x)

    def matmat(self, block) -> np.ndarray:
        """Return ``A @ B`` for a ``(n_cols, k)`` block of vectors."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.shape[1]:
            raise ShapeError(
                f"block must have shape ({self.shape[1]}, k), got {block.shape}"
            )
        return self._sweep_matmat(block)

    def dot(self, other) -> np.ndarray:
        """Dispatch to :meth:`matvec` or :meth:`matmat` on ``other.ndim``."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise ShapeError(f"operand must be 1-D or 2-D, got shape {other.shape}")

    __matmul__ = dot
