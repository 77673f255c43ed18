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
implementation-defined blocking), which is why the sweeps below are
written as explicit slot loops.

**Zero absorption.**  The dense sweep additionally adds the products of
the *unstored* (exactly-zero) entries, and the ELL sweep adds the
products of its padded slots (``data 0.0``, index 0).  Both extras are
``0.0 * x`` terms, i.e. ``+0.0`` or ``-0.0`` for finite ``x``.  IEEE-754
addition absorbs them exactly: ``s + (+/-0.0) == s`` whenever
``s != -0.0``, and a running sum that starts at ``+0.0`` can never reach
``-0.0`` (``a + b`` is ``-0.0`` only when *both* addends are ``-0.0``).
Hence dense, CSR, and ELL sweeps over the same matrix are bit-identical
for finite inputs — the property suite pins this.

**Host cost.**  The sweeps iterate ``W = max_row_nnz`` slots (dense:
``n_cols`` columns), one vectorized multiply-accumulate each, so the
host cost is ``O(W)`` numpy calls on ``O(n_rows)`` operands.  A
:class:`SweepPlan` classifies the CSR slots from ``indptr`` alone and
runs each in one of two exact forms:

* *strided* — every row stores the same count ``W`` (periodic lattices
  such as the paper's cube), so slot ``k`` is the views
  ``data[k::W]`` / ``indices[k::W]`` and ``out += ...``: no position
  gather, no row scatter;
* *rows* — row lengths differ: only the rows longer than ``k`` take
  part, ``out[rows] += ...`` over gathered positions.

Each output element receives the same multiply-adds in the same order
under both kinds, so the plan is a host-time choice only; it never
changes a bit of the result.
"""

from __future__ import annotations

import numpy as np

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
    """Precomputed slot schedule of a CSR matrix's canonical sweep.

    Slot ``k`` covers the ``k``-th stored entry of every row that has at
    least ``k + 1`` entries.  ``slots[k]`` is ``(rows, positions)``:
    for a strided slot ``rows`` is ``None`` and ``positions`` a
    ``slice`` of ``data`` / ``indices`` covering every row in order;
    otherwise ``rows`` are the output rows and ``positions`` the
    matching flat positions.  ``nnz`` is the stored-entry count the
    plan was built for; the sweeps refuse arrays of any other length,
    since a strided slice would silently clamp instead of failing.
    Total memory is ``O(nnz)`` regardless of row skew, and nothing for
    uniform rows.
    """

    __slots__ = ("n_rows", "nnz", "slots")

    def __init__(
        self,
        n_rows: int,
        nnz: int,
        slots: list[tuple[np.ndarray | None, np.ndarray | slice]],
    ):
        self.n_rows = n_rows
        self.nnz = nnz
        self.slots = slots


def build_sweep_plan(indptr: np.ndarray, n_rows: int) -> SweepPlan:
    """Build the slot schedule for a CSR row pointer (see module docstring)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.shape[0] != n_rows + 1:
        raise ShapeError(
            f"indptr must have length n_rows+1={n_rows + 1}, got {indptr.shape[0]}"
        )
    row_lengths = np.diff(indptr)
    width = int(row_lengths.max(initial=0))
    uniform = bool(np.all(row_lengths == width))
    first, nnz = int(indptr[0]), int(indptr[-1])
    starts = indptr[:-1]
    slots: list[tuple[np.ndarray | None, np.ndarray | slice]] = []
    for k in range(width):
        if uniform:
            slots.append((None, slice(first + k, nnz, width)))
        else:
            rows = np.flatnonzero(row_lengths > k)
            slots.append((rows, starts[rows] + k))
    return SweepPlan(n_rows, nnz, slots)


def _check_lengths(data, indices, plan: SweepPlan) -> None:
    if len(data) != plan.nnz or len(indices) != plan.nnz:
        raise ShapeError(
            f"plan was built for nnz={plan.nnz}, got data/indices of "
            f"length {len(data)}/{len(indices)}"
        )


def csr_sweep_matvec(data, indices, plan: SweepPlan, x) -> np.ndarray:
    """Canonical ``A @ x`` over CSR storage (see module docstring)."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    _check_lengths(data, indices, plan)
    out = np.zeros(plan.n_rows, dtype=np.result_type(data, x))
    for rows, positions in plan.slots:
        term = data[positions] * x[indices[positions]]
        if rows is None:
            out += term
        else:
            out[rows] += term
    return out


def csr_sweep_matmat(data, indices, plan: SweepPlan, block) -> np.ndarray:
    """Canonical ``A @ B`` over CSR storage, column by column independent."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    _check_lengths(data, indices, plan)
    out = np.zeros((plan.n_rows, block.shape[1]), dtype=np.result_type(data, block))
    for rows, positions in plan.slots:
        term = data[positions, None] * block[indices[positions], :]
        if rows is None:
            out += term
        else:
            out[rows] += term
    return out


def ell_sweep_matvec(ell_data, ell_indices, x) -> np.ndarray:
    """Canonical ``A @ x`` over ELL storage (padded slots absorb exactly)."""
    if ell_data.shape != ell_indices.shape:
        raise ShapeError(
            f"ELL data/indices shapes differ: {ell_data.shape} vs {ell_indices.shape}"
        )
    out = np.zeros(ell_data.shape[0], dtype=np.result_type(ell_data, x))
    for k in range(ell_data.shape[1]):
        out += ell_data[:, k] * x[ell_indices[:, k]]
    return out


def ell_sweep_matmat(ell_data, ell_indices, block) -> np.ndarray:
    """Canonical ``A @ B`` over ELL storage."""
    if ell_data.shape != ell_indices.shape:
        raise ShapeError(
            f"ELL data/indices shapes differ: {ell_data.shape} vs {ell_indices.shape}"
        )
    out = np.zeros(
        (ell_data.shape[0], block.shape[1]), dtype=np.result_type(ell_data, block)
    )
    for k in range(ell_data.shape[1]):
        out += ell_data[:, k, None] * block[ell_indices[:, k], :]
    return out


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
