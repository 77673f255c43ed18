"""Storage-level cost of one ``H~ @ x``, written once for every cost model.

A matvec's cost depends on the storage (paper Sec. II-A4: ``O(SRND)``
sparse against ``O(SRND^2)`` dense).  The CPU roofline and the GPU
launch accounting both price :class:`StorageCost` and add only their
own hardware factors.

========  =====================================  ==========  =============
format    upload arrays (values, int64 indices)  flops       operand reads
========  =====================================  ==========  =============
dense     ``D^2`` values                         ``2 D^2``   ``D``
csr       ``nnz`` values, ``nnz`` + ``D + 1``    ``2 nnz``   ``nnz``
ell       ``D W`` values, ``D W``                ``2 D W``   ``D W``
========  =====================================  ==========  =============
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = ["StorageCost"]

_INDEX_BYTES = 8
#: Cost of one uniform random double in a compiled xorshift/LCG loop.
_RNG_FLOPS_PER_ELEMENT = 4.0


def _itemsize(precision: str) -> int:
    if precision == "double":
        return 8
    if precision == "single":
        return 4
    raise ValidationError(f"precision must be 'double' or 'single', got {precision!r}")


@dataclass(frozen=True)
class StorageCost:
    """What one ``H~ @ x`` uploads, keeps resident, computes and reads.

    Built in O(1) from counts (:meth:`dense`, :meth:`csr`, :meth:`ell`)
    or from an operator in the storage it holds (:meth:`of`), for one
    ``dimension`` and value ``precision``.  ``upload_bytes`` lists the
    stored arrays in upload order and ``matrix_bytes`` is their sum;
    ``flops`` is 2 per stored value, ELL padding included;
    ``operand_reads`` counts the operand elements one product reads.
    """

    format: str
    dimension: int
    precision: str
    matrix_bytes: int
    upload_bytes: tuple[int, ...]
    flops: float
    operand_reads: int

    @classmethod
    def _of_arrays(cls, format, dim, precision, values, index_arrays, reads):
        item = _itemsize(precision)
        arrays = (values * item,) + tuple(n * _INDEX_BYTES for n in index_arrays)
        return cls(format, dim, precision, sum(arrays), arrays, 2.0 * values, reads)

    @classmethod
    def dense(cls, dimension: int, *, precision: str = "double") -> "StorageCost":
        """The full ``D x D`` sweep (the paper's measured configuration)."""
        dim = check_positive_int(dimension, "dimension")
        return cls._of_arrays("dense", dim, precision, dim * dim, (), dim)

    @classmethod
    def csr(cls, dimension: int, nnz: int, *, precision: str = "double") -> "StorageCost":
        """CSR arrays of ``nnz`` stored entries."""
        dim = check_positive_int(dimension, "dimension")
        nnz = check_nonnegative_int(nnz, "nnz")
        if nnz > dim * dim:
            raise ValidationError(
                f"nnz must be at most dimension**2 = {dim * dim}, got {nnz}"
            )
        return cls._of_arrays("csr", dim, precision, nnz, (nnz, dim + 1), nnz)

    @classmethod
    def ell(cls, dimension: int, width: int, *, precision: str = "double") -> "StorageCost":
        """ELL slots of ``width`` per row, padding included."""
        dim = check_positive_int(dimension, "dimension")
        slots = dim * check_nonnegative_int(width, "width")
        return cls._of_arrays("ell", dim, precision, slots, (slots,), slots)

    @classmethod
    def of(cls, operator, *, precision: str = "double") -> "StorageCost":
        """The storage ``operator`` holds: CSR, ELL, or else dense."""
        if isinstance(operator, CSRMatrix):
            return cls.csr(operator.shape[0], operator.nnz_stored, precision=precision)
        if isinstance(operator, ELLMatrix):
            return cls.ell(operator.shape[0], operator.width, precision=precision)
        if not hasattr(operator, "shape"):
            raise ValidationError(
                f"operator must expose .shape, got {type(operator).__name__}"
            )
        return cls.dense(operator.shape[0], precision=precision)


def _priced(storage: StorageCost | None, dimension: int, precision: str) -> StorageCost:
    """``storage``, or the dense sweep when it is ``None``; a description
    of another size or precision than the priced run is refused."""
    if storage is None:
        return StorageCost.dense(dimension, precision=precision)
    if not isinstance(storage, StorageCost) or (
        (storage.dimension, storage.precision) != (dimension, precision)
    ):
        raise ValidationError(
            f"storage must be a StorageCost of D={dimension} in {precision} "
            f"precision, got {storage!r}"
        )
    return storage
