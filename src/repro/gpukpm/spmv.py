"""Per-format SpMV cost models shared by executor, estimator, and tuner.

A :class:`SpmvModel` is the :class:`~repro.sparse.StorageCost` of the
stored matrix (the description the CPU model prices too) plus the
device factors of its program: the ``x`` gather's misses, the
achievable-bandwidth ``coalescing``, the lockstep ``thread_efficiency``
of irregular rows, and the csr-vector lanes and reduction tree.  The
executed pipeline charges these numbers through
:mod:`repro.gpukpm.stats` and the analytic estimator prices the same
numbers — the estimator-consistency tests pin their equality, so the
autotuner's scores are exact with respect to simulator semantics.

Formats
-------
``dense``
    Row-per-thread sweep over the full matrix (the paper's measured
    configuration): ``D^2`` strided loads at ``coalescing = 0.5``.
``csr``
    Scalar CSR — one thread walks one row's gather: ``O(nnz)`` traffic
    plus the gather's misses and row-length skew.
``csr-vector``
    One ``vector_width``-lane warp team per row with a shared-memory
    reduction tree: better coalescing on long rows (lanes read adjacent
    entries), wasted lanes on rows shorter than the team.
``ell``
    ELLPACK slots — perfectly coalesced column-major streams
    (``coalescing = 0.95``) at the price of the padded slots.

All formats execute the *canonical contraction order* of
:mod:`repro.sparse.sweep`, so these models never change numerics — only
modeled cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.gpu.costmodel import gather_miss_fraction, row_imbalance_efficiency
from repro.sparse.cost import StorageCost, _itemsize, _priced
from repro.sparse.ell import ELLMatrix
from repro.sparse.fingerprint import StructureProfile, structure_profile
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "SPMV_FORMATS",
    "VECTOR_WIDTHS",
    "SpmvModel",
    "spmv_model_for",
    "uniform_csr_model",
    "default_spmv_format",
    "DENSE_MATVEC_COALESCING",
    "CSR_MATVEC_COALESCING",
]

#: Storage formats the block programs implement.
SPMV_FORMATS = ("dense", "csr", "csr-vector", "ell")

#: Warp-team widths the csr-vector program supports (lanes per row).
VECTOR_WIDTHS = (2, 4, 8, 16, 32)

#: Achievable bandwidth fraction of the row-per-thread dense sweep: the
#: paper's sweep over a row-major matrix produces strided (partially
#: coalesced) loads, one of the documented reasons its measured speedup
#: sits near 4x rather than at the bandwidth ratio.
DENSE_MATVEC_COALESCING = 0.5
#: Achievable bandwidth fraction of the CSR gather.
CSR_MATVEC_COALESCING = 0.7
#: Achievable bandwidth fraction of the fully coalesced ELL stream.
ELL_COALESCING = 0.95

#: Coalescing the csr-vector program reaches when its lanes are saturated.
CSR_VECTOR_COALESCING_SATURATED = 0.95


@dataclass(frozen=True)
class SpmvModel:
    """Device cost of one SpMV under one storage format.

    ``storage`` is the :class:`~repro.sparse.StorageCost` of the stored
    matrix; ``format`` is one of :data:`SPMV_FORMATS` (``csr-vector``
    stores CSR), run with ``vector_width`` lanes per row.
    ``flops_per_matvec`` adds any reduction tree to the stored-value
    flops and ``read_bytes_per_matvec`` the ``x`` gather to the matrix
    bytes (the caller charges the output write); ``coalescing`` and
    ``thread_efficiency`` are the penalties the roofline consumes.
    """

    storage: StorageCost
    format: str
    vector_width: int
    flops_per_matvec: float
    read_bytes_per_matvec: float
    coalescing: float
    thread_efficiency: float


def _device_model(
    storage: StorageCost,
    profile: StructureProfile | None = None,
    format: str = "dense",
    vector_width: int = 1,
) -> SpmvModel:
    """``storage`` with the device factors of ``format`` on ``profile``."""
    item = _itemsize(storage.precision)
    # One streaming pass over x, plus a miss-rate-scaled extra line per
    # read beyond the first per element.
    gather = storage.dimension * item
    extra = storage.operand_reads - storage.dimension
    if extra > 0:
        miss = gather_miss_fraction(profile.dimension, profile.mean_abs_offset)
        gather += extra * item * miss
    flops = storage.flops
    efficiency = 1.0
    if format == "dense":
        coalescing = DENSE_MATVEC_COALESCING
    elif format == "ell":
        coalescing = ELL_COALESCING
    else:
        coalescing = CSR_MATVEC_COALESCING
        efficiency = row_imbalance_efficiency(
            profile.row_nnz_max, profile.row_nnz_mean, granularity=vector_width
        )
        if format == "csr-vector":
            # Warp-team reduction tree: log2(w) combine steps per row.
            flops += storage.dimension * math.ceil(math.log2(vector_width))
            lane_fill = min(1.0, profile.row_nnz_mean / vector_width)
            coalescing += (
                CSR_VECTOR_COALESCING_SATURATED - CSR_MATVEC_COALESCING
            ) * lane_fill
            efficiency *= max(lane_fill, 1.0 / vector_width)
        efficiency = max(efficiency, 1.0 / 32.0)
    return SpmvModel(
        storage=storage,
        format=format,
        vector_width=vector_width,
        flops_per_matvec=flops,
        read_bytes_per_matvec=float(storage.matrix_bytes + gather),
        coalescing=coalescing,
        thread_efficiency=efficiency,
    )


def _matvec_model(spmv: SpmvModel | None, dim: int, precision: str) -> SpmvModel:
    """``spmv`` (checked against the run), or the dense sweep if ``None``."""
    if spmv is None:
        return _device_model(StorageCost.dense(dim, precision=precision))
    _priced(spmv.storage, dim, precision)
    return spmv


def spmv_model_for(
    operator_or_profile,
    format: str,
    *,
    precision: str = "double",
    vector_width: int = 1,
) -> SpmvModel:
    """Build the :class:`SpmvModel` of ``format`` for a matrix structure.

    Accepts an operator (anything :func:`repro.sparse.structure_profile`
    handles) or a pre-computed :class:`~repro.sparse.StructureProfile`.
    ``vector_width`` applies only to ``csr-vector`` and must come from
    :data:`VECTOR_WIDTHS`.  An :class:`~repro.sparse.ELLMatrix` priced
    as ``ell`` keeps the slot width it stores; any other structure goes
    onto ELL at its longest row, as ``ELLMatrix.from_csr`` stores it.
    """
    if format not in SPMV_FORMATS:
        raise ValidationError(
            f"format must be one of {SPMV_FORMATS}, got {format!r}"
        )
    if format != "csr-vector":
        vector_width = 1
    elif vector_width not in VECTOR_WIDTHS:
        raise ValidationError(
            f"vector_width must be one of {VECTOR_WIDTHS}, got {vector_width}"
        )
    given = operator_or_profile
    if format == "dense":
        # The dense model needs only the dimension — skip the O(nnz)
        # structure scan (this is the admission-pricing hot path).
        dim = given.dimension if isinstance(given, StructureProfile) else given.shape[0]
        return _device_model(StorageCost.dense(dim, precision=precision))
    profile = given if isinstance(given, StructureProfile) else structure_profile(given)
    if format == "ell":
        width = given.width if isinstance(given, ELLMatrix) else profile.row_nnz_max
        storage = StorageCost.ell(profile.dimension, width, precision=precision)
    else:
        storage = StorageCost.csr(profile.dimension, profile.nnz, precision=precision)
    return _device_model(storage, profile, format, vector_width)


def uniform_csr_model(
    dimension: int, nnz: int, *, precision: str = "double"
) -> SpmvModel:
    """Scalar-CSR model of a matrix known only by its counts.

    For the count-based CRS and transport ablations, which price a CSR
    matrix from ``(D, nnz)`` alone and have no operator to profile.  The
    matrix is taken as ``nnz / D`` entries per row whose columns stay
    within the gather's near window, so the ``csr`` model
    pays no gather miss and no row imbalance: this equals
    ``spmv_model_for(op, "csr")`` of any uniform-row operator with that
    locality (a 3^3 periodic cube, for one).
    """
    dim = check_positive_int(dimension, "dimension")
    nnz = check_nonnegative_int(nnz, "nnz")
    uniform = StructureProfile(
        dimension=dim,
        n_cols=dim,
        nnz=nnz,
        density=nnz / (dim * dim),
        row_nnz_max=math.ceil(nnz / dim),
        row_nnz_mean=nnz / dim,
        row_nnz_min=nnz // dim,
        row_nnz_var=0.0,
        bandwidth=0,
        mean_abs_offset=0.0,
        dtype="float64",
    )
    return spmv_model_for(uniform, "csr", precision=precision)


def default_spmv_format(operator) -> str:  # repro: noqa[RA005] -- StorageCost.of validates
    """Storage-preserving default when no tuner is consulted: the
    format of :meth:`StorageCost.of <repro.sparse.StorageCost.of>`."""
    return StorageCost.of(operator).format
