"""Structural fingerprints of sparse operators for the autotuner.

The autotuner (:mod:`repro.tune`) keys its cached kernel choices by the
matrix *structure*, not the stored values: two Hamiltonians with the
same sparsity pattern (density, bandwidth, per-row nnz distribution)
have identical SpMV cost, so they should share one tuning entry even
when their values differ.  :func:`structure_profile` extracts that
structure into a :class:`StructureProfile`, and
:func:`structure_fingerprint` hashes it into a stable cache key.

Distinct from :func:`repro.sparse.csr.content_fingerprint`, which covers
the exact stored *values* and keys the moment cache — perturbing one
value changes the content fingerprint but not the structure fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = ["StructureProfile", "structure_profile", "structure_fingerprint"]


@dataclass(frozen=True)
class StructureProfile:
    """Cheap structural statistics of a sparse operator.

    All statistics describe the stored (non-zero) pattern: ``density``
    is ``nnz / (rows * cols)``, ``bandwidth`` the maximum ``|col - row|``,
    ``mean_abs_offset`` the average ``|col - row|`` (gather-locality
    proxy), and the ``row_nnz_*`` family the per-row nnz distribution
    the imbalance and ELL-padding cost terms consume.
    """

    dimension: int
    n_cols: int
    nnz: int
    density: float
    row_nnz_max: int
    row_nnz_mean: float
    row_nnz_min: int
    row_nnz_var: float
    bandwidth: int
    mean_abs_offset: float
    dtype: str

    def as_dict(self) -> dict:
        """Plain-JSON-type dict of the profile (stable field order)."""
        return asdict(self)


def _profile_from_pattern(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], dtype: str
) -> StructureProfile:
    n_rows, n_cols = int(shape[0]), int(shape[1])
    nnz = int(rows.size)
    row_counts = np.bincount(rows, minlength=n_rows) if nnz else np.zeros(n_rows, np.int64)
    offsets = np.abs(cols - rows) if nnz else np.zeros(0, np.int64)
    return StructureProfile(
        dimension=n_rows,
        n_cols=n_cols,
        nnz=nnz,
        density=float(nnz / (n_rows * n_cols)),
        row_nnz_max=int(row_counts.max(initial=0)),
        row_nnz_mean=float(nnz / n_rows),
        row_nnz_min=int(row_counts.min()) if n_rows else 0,
        row_nnz_var=float(np.var(row_counts)),
        bandwidth=int(offsets.max(initial=0)),
        mean_abs_offset=float(offsets.mean()) if nnz else 0.0,
        dtype=dtype,
    )


def _sparse_profile(op) -> StructureProfile:
    """One O(nnz) scan of a CSR or ELL operator's stored pattern."""
    from repro.sparse.ell import ELLMatrix

    if isinstance(op, ELLMatrix):
        slot = np.arange(op.width, dtype=np.int64)[None, :]
        stored = slot < op.row_nnz[:, None]
        rows = np.repeat(np.arange(op.shape[0], dtype=np.int64), op.row_nnz)
        return _profile_from_pattern(rows, op.indices[stored], op.shape, "float64")
    rows = np.repeat(
        np.arange(op.shape[0], dtype=np.int64), np.diff(op.indptr)
    )
    return _profile_from_pattern(rows, op.indices, op.shape, "float64")


def structure_profile(op) -> StructureProfile:
    """Extract the :class:`StructureProfile` of a sparse/dense operator.

    Accepts :class:`~repro.sparse.CSRMatrix`,
    :class:`~repro.sparse.ELLMatrix`, :class:`~repro.sparse.COOMatrix`,
    :class:`~repro.sparse.DenseOperator`, or a raw 2-D array (the last
    two profile their *non-zero* pattern, i.e. the structure a sparse
    conversion would store).

    A CSR or ELL pattern is read-only once built, so its profile is
    computed once and kept on the operator's
    :class:`~repro.sparse.sweep.SweepPlan`; later calls return it.
    """
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.ell import ELLMatrix

    if isinstance(op, np.ndarray):
        op = CSRMatrix.from_dense(op)
    if not isinstance(op, (CSRMatrix, ELLMatrix)):
        to_csr = getattr(op, "to_csr", None)
        if to_csr is None:
            raise ValidationError(
                f"cannot profile operator of type {type(op).__name__}"
            )
        op = to_csr()
    plan = op.sweep_plan
    if plan.profile is None:
        plan.profile = _sparse_profile(op)
    return plan.profile


def structure_fingerprint(op) -> str:
    """SHA-256 hex digest of an operator's :class:`StructureProfile`.

    Equal structure always collides (values are ignored by design);
    any change to the stored pattern or dtype changes the digest.
    """
    if op is None:
        raise ValidationError("structure_fingerprint needs an operator or profile")
    profile = op if isinstance(op, StructureProfile) else structure_profile(op)
    payload = json.dumps(
        profile.as_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
