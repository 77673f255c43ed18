"""Per-format SpMV cost models shared by executor, estimator, and tuner.

One :class:`SpmvModel` captures everything the launch accounting needs
to know about a (storage format, matrix structure) pair: FLOPs and
global traffic of a single ``H~ @ x``, the achievable-bandwidth
``coalescing`` factor, the lockstep ``thread_efficiency`` penalty of
irregular rows, the device-resident matrix bytes (footprint/L2 term),
and the exact per-array upload sizes.  The executed pipeline charges
these numbers through :mod:`repro.gpukpm.stats` and the analytic
estimator prices the same numbers — the estimator-consistency tests pin
their equality, so the autotuner's scores are exact with respect to
simulator semantics.

Formats
-------
``dense``
    Row-per-thread sweep over the full matrix (the paper's measured
    configuration): ``2 D^2`` FLOPs, ``D^2`` strided loads at
    ``coalescing = 0.5``.
``csr``
    Scalar CSR — one thread walks one row's gather.  Traffic drops to
    ``O(nnz)`` but the model pays for column-index loads, the
    ``x[indices]`` gather (:func:`~repro.gpu.costmodel.gather_miss_fraction`)
    and row-length skew (:func:`~repro.gpu.costmodel.row_imbalance_efficiency`).
``csr-vector``
    One ``vector_width``-lane warp team per row with a shared-memory
    reduction tree: better coalescing on long rows (lanes read adjacent
    entries), wasted lanes on rows shorter than the team.
``ell``
    ELLPACK slots — perfectly coalesced column-major streams
    (``coalescing = 0.95``) at the price of padding every row to
    ``max_row_nnz`` (:func:`~repro.gpu.costmodel.ell_padding_fraction`).

All formats execute the *canonical contraction order* of
:mod:`repro.sparse.sweep`, so these models never change numerics — only
modeled cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.gpu.costmodel import gather_miss_fraction, row_imbalance_efficiency
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

_INDEX = 8

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


def _itemsize(precision: str) -> int:
    if precision == "double":
        return 8
    if precision == "single":
        return 4
    raise ValidationError(f"precision must be 'double' or 'single', got {precision!r}")


@dataclass(frozen=True)
class SpmvModel:
    """Cost description of one SpMV under one storage format.

    Attributes
    ----------
    format:
        One of :data:`SPMV_FORMATS`.
    vector_width:
        Lanes per row (1 except for ``csr-vector``).
    nnz:
        Stored entries the format holds (informational; ELL work is
        priced on padded slots, not on ``nnz``).
    flops_per_matvec / read_bytes_per_matvec:
        Work of a single ``H~ @ x`` (reads include matrix, indices, and
        the ``x`` gather; the output write is charged by the caller).
    coalescing / thread_efficiency:
        The irregular-access penalties the roofline consumes.
    matrix_bytes:
        Device-resident storage (footprint/L2 term).
    upload_bytes:
        Exact per-array PCIe upload sizes, in upload order.
    """

    format: str
    vector_width: int
    nnz: int
    flops_per_matvec: float
    read_bytes_per_matvec: float
    coalescing: float
    thread_efficiency: float
    matrix_bytes: float
    upload_bytes: tuple[int, ...]


def _gather_bytes(profile: StructureProfile, stored_slots: float, item: int) -> float:
    """Bytes of the ``x[indices]`` gather: one streaming pass over ``x``
    plus a miss-rate-scaled extra line per gather beyond the first per
    element."""
    base = profile.dimension * item
    extra = max(0.0, stored_slots - profile.dimension)
    miss = gather_miss_fraction(profile.dimension, profile.mean_abs_offset)
    return base + extra * item * miss


def _dense_model(dim: int, item: int) -> SpmvModel:
    matrix_bytes = float(dim * dim * item)
    return SpmvModel(
        format="dense",
        vector_width=1,
        nnz=dim * dim,
        flops_per_matvec=2.0 * dim * dim,
        read_bytes_per_matvec=matrix_bytes + dim * item,
        coalescing=DENSE_MATVEC_COALESCING,
        thread_efficiency=1.0,
        matrix_bytes=matrix_bytes,
        upload_bytes=(dim * dim * item,),
    )


def _matvec_model(spmv: SpmvModel | None, dim: int, item: int) -> SpmvModel:
    """``spmv``, or the paper's dense sweep when it is ``None``."""
    return _dense_model(dim, item) if spmv is None else spmv


def _csr_model(
    profile: StructureProfile, item: int, *, vector_width: int = 1
) -> SpmvModel:
    dim = profile.dimension
    nnz = profile.nnz
    matrix_bytes = float(nnz * (item + _INDEX) + (dim + 1) * _INDEX)
    read = matrix_bytes + _gather_bytes(profile, nnz, item)
    efficiency = row_imbalance_efficiency(
        profile.row_nnz_max, profile.row_nnz_mean, granularity=vector_width
    )
    if vector_width == 1:
        name = "csr"
        flops = 2.0 * nnz
        coalescing = CSR_MATVEC_COALESCING
    else:
        name = "csr-vector"
        # Warp-team reduction tree: log2(w) combine steps per row.
        flops = 2.0 * nnz + dim * math.ceil(math.log2(vector_width))
        lane_fill = min(1.0, profile.row_nnz_mean / vector_width)
        coalescing = CSR_MATVEC_COALESCING + (
            CSR_VECTOR_COALESCING_SATURATED - CSR_MATVEC_COALESCING
        ) * lane_fill
        efficiency *= max(lane_fill, 1.0 / vector_width)
    return SpmvModel(
        format=name,
        vector_width=vector_width,
        nnz=nnz,
        flops_per_matvec=flops,
        read_bytes_per_matvec=read,
        coalescing=coalescing,
        thread_efficiency=max(efficiency, 1.0 / 32.0),
        matrix_bytes=matrix_bytes,
        upload_bytes=(nnz * item, nnz * _INDEX, (dim + 1) * _INDEX),
    )


def _ell_model(profile: StructureProfile, item: int) -> SpmvModel:
    dim = profile.dimension
    slots = dim * profile.row_nnz_max  # padded storage
    matrix_bytes = float(slots * (item + _INDEX))
    return SpmvModel(
        format="ell",
        vector_width=1,
        nnz=profile.nnz,
        flops_per_matvec=2.0 * slots,
        read_bytes_per_matvec=matrix_bytes + _gather_bytes(profile, slots, item),
        coalescing=ELL_COALESCING,
        thread_efficiency=1.0,
        matrix_bytes=matrix_bytes,
        upload_bytes=(slots * item, slots * _INDEX),
    )


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
    :data:`VECTOR_WIDTHS`.
    """
    if format not in SPMV_FORMATS:
        raise ValidationError(
            f"format must be one of {SPMV_FORMATS}, got {format!r}"
        )
    item = _itemsize(precision)
    if format == "dense":
        # The dense model needs only the dimension — skip the O(nnz)
        # structure scan (this is the admission-pricing hot path).
        if isinstance(operator_or_profile, StructureProfile):
            dim = operator_or_profile.dimension
        else:
            dim = int(operator_or_profile.shape[0])
        return _dense_model(dim, item)
    profile = (
        operator_or_profile
        if isinstance(operator_or_profile, StructureProfile)
        else structure_profile(operator_or_profile)
    )
    if format == "csr":
        return _csr_model(profile, item)
    if format == "csr-vector":
        if vector_width not in VECTOR_WIDTHS:
            raise ValidationError(
                f"vector_width must be one of {VECTOR_WIDTHS}, got {vector_width}"
            )
        return _csr_model(profile, item, vector_width=vector_width)
    return _ell_model(profile, item)


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
    item = _itemsize(precision)
    if nnz > dim * dim:
        raise ValidationError(
            f"nnz must be at most dimension**2 = {dim * dim}, got {nnz}"
        )
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
    return _csr_model(uniform, item)


def default_spmv_format(operator) -> str:
    """Storage-preserving default when no tuner is consulted.

    Mirrors what the operator already stores: CSR runs the scalar CSR
    program, ELL its slot program, everything else the dense sweep —
    the pre-tuner pipeline behavior, now with honest per-format pricing.
    """
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.ell import ELLMatrix

    if not hasattr(operator, "shape"):
        raise ValidationError(
            f"operator must expose .shape, got {type(operator).__name__}"
        )
    if isinstance(operator, ELLMatrix):
        return "ell"
    if isinstance(operator, CSRMatrix):
        return "csr"
    return "dense"
