"""Launch geometry and work accounting shared by execution and estimation.

The functional pipeline (:mod:`repro.gpukpm.pipeline`) and the analytic
estimator (:mod:`repro.gpukpm.estimator`) must price *exactly* the same
launch schedule — the tests pin their equality.  Both therefore build
their grids with :func:`plan_grid` and their per-launch
:class:`~repro.gpu.KernelStats` with the functions here.

Work accounting per random vector (``D = H_SIZE``, ``N`` moments,
``item`` bytes per float):

================  ======================  ====================================
phase             FLOPs                   global traffic (bytes)
================  ======================  ====================================
RNG               ``4 D``                 write ``item D``
prologue          —                       read ``load``
matvec (x steps)  ``flops_per_matvec``    read ``read_bytes_per_matvec``,
                                          write ``item D``
axpy (x steps)    ``2 D``                 read ``2 item D``, write ``item D``
dot (x dots)      ``2 D``                 read ``2 item D``, write ``item``
================  ======================  ====================================

The matvec row — its work, ``coalescing`` and ``thread_efficiency`` —
is read from the :class:`~repro.gpukpm.spmv.SpmvModel` of the stored
matrix, the footprint from its :class:`~repro.sparse.StorageCost`;
``spmv=None`` is the paper's dense sweep.  Two prologues cover every launch:

* a cold run has ``(load, steps, dots) = (0, N - 1, N)``;
* a resume from order ``s`` regenerates ``|r>`` from its Philox stream
  (cheaper than round-tripping it through PCIe), loads the two
  checkpointed vectors ``r_{s-2}, r_{s-1}`` and has
  ``(load, steps, dots) = (2 item D, N - s, N - s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LaunchError, ValidationError
from repro.gpu.kernel import KernelStats
from repro.gpu.spec import GpuSpec
from repro.gpukpm.spmv import _matvec_model
from repro.sparse.cost import _RNG_FLOPS_PER_ELEMENT, _itemsize
from repro.util.validation import check_positive_int

__all__ = [
    "GridPlan",
    "plan_grid",
    "per_vector_recursion_stats",
    "recursion_footprint_bytes",
    "recursion_launch_stats",
    "reduce_launch_stats",
]

@dataclass(frozen=True)
class GridPlan:
    """Launch geometry of the paper's decomposition.

    ``num_blocks = ceil(total_vectors / block_size)`` (paper Sec. III-A;
    the paper assumes divisibility, we allow a ragged last block).
    ``vectors_of(block)`` gives the contiguous vector range a block owns.
    """

    total_vectors: int
    block_size: int
    num_blocks: int

    def vectors_of(self, block_id: int) -> range:
        """The vector indices owned by ``block_id``."""
        if not 0 <= block_id < self.num_blocks:
            raise ValidationError(
                f"block_id {block_id} out of range for {self.num_blocks} blocks"
            )
        start = block_id * self.block_size
        return range(start, min(start + self.block_size, self.total_vectors))


def plan_grid(total_vectors: int, block_size: int, spec: GpuSpec) -> GridPlan:
    """Build the launch geometry, validating against device limits."""
    total_vectors = check_positive_int(total_vectors, "total_vectors")
    block_size = check_positive_int(block_size, "block_size")
    if block_size > spec.max_threads_per_block:
        raise LaunchError(
            f"BLOCK_SIZE {block_size} exceeds the device limit of "
            f"{spec.max_threads_per_block} threads per block"
        )
    return GridPlan(
        total_vectors=total_vectors,
        block_size=block_size,
        num_blocks=math.ceil(total_vectors / block_size),
    )


def per_vector_recursion_stats(
    dimension: int,
    num_moments: int,
    *,
    spmv=None,
    block_size: int | None = None,
    precision: str = "double",
    start_moment: int = 0,
) -> KernelStats:
    """Work of the recursion for ONE random vector, cold or resumed.

    ``spmv`` (a :class:`~repro.gpukpm.spmv.SpmvModel`) prices each
    matvec; ``None`` is the dense sweep of the paper's measured runs.
    ``block_size`` sets the thread efficiency: in the paper's design the
    block's threads tile the ``H_SIZE`` vector elements, so a block wider
    than the vector idles its excess lanes.  ``precision`` sizes the
    vector traffic (the model already carries the matrix's).
    ``start_moment=0`` is a cold run; ``2 <= start_moment <
    num_moments`` resumes from two checkpointed recursion vectors and
    counts only the new orders (the module's prologues).  Returned
    stats carry no footprint (set at launch level).
    """
    dim = check_positive_int(dimension, "dimension")
    n = check_positive_int(num_moments, "num_moments")
    item = _itemsize(precision)
    if block_size is None:
        thread_efficiency = 1.0
    else:
        block_size = check_positive_int(block_size, "block_size")
        thread_efficiency = min(1.0, dim / block_size)
    vec_bytes = dim * item
    if start_moment == 0:
        load, steps, dots = 0, n - 1, n
    else:
        start = check_positive_int(start_moment, "start_moment")
        if not 2 <= start < n:
            raise ValidationError(
                "resume needs 2 <= start_moment < num_moments (two recursion "
                f"vectors are checkpointed), got {start} and {n}"
            )
        load, steps, dots = 2.0 * vec_bytes, n - start, n - start
    matvec = _matvec_model(spmv, dim, precision)
    return KernelStats(
        flops=_RNG_FLOPS_PER_ELEMENT * dim
        + steps * (matvec.flops_per_matvec + 2.0 * dim)
        + dots * 2.0 * dim,
        gmem_read_bytes=load
        + steps * (matvec.read_bytes_per_matvec + 2.0 * vec_bytes)
        + dots * 2.0 * vec_bytes,
        gmem_write_bytes=float(vec_bytes) + steps * 2.0 * vec_bytes + dots * item,
        coalescing=matvec.coalescing,
        thread_efficiency=thread_efficiency * matvec.thread_efficiency,
        precision=precision,
    )


def recursion_footprint_bytes(
    dimension: int,
    plan: GridPlan,
    spec: GpuSpec,
    *,
    spmv=None,
    precision: str = "double",
) -> float:
    """Working set of the recursion launch for the L2-reuse decision.

    The matrix is shared by all blocks; each *active* block adds its
    4-vector workspace (paper Sec. III-B2).
    """
    dim = check_positive_int(dimension, "dimension")
    item = _itemsize(precision)
    active_blocks = min(plan.num_blocks, spec.sm_count)
    return (
        _matvec_model(spmv, dim, precision).storage.matrix_bytes
        + active_blocks * 4.0 * dim * item
    )


def recursion_launch_stats(
    dimension: int,
    num_moments: int,
    plan: GridPlan,
    spec: GpuSpec,
    *,
    spmv=None,
    precision: str = "double",
) -> KernelStats:
    """Aggregate stats of the whole recursion launch (all vectors)."""
    dimension = check_positive_int(dimension, "dimension")
    num_moments = check_positive_int(num_moments, "num_moments")
    per_vector = per_vector_recursion_stats(
        dimension,
        num_moments,
        spmv=spmv,
        block_size=plan.block_size,
        precision=precision,
    )
    return KernelStats(
        flops=per_vector.flops * plan.total_vectors,
        gmem_read_bytes=per_vector.gmem_read_bytes * plan.total_vectors,
        gmem_write_bytes=per_vector.gmem_write_bytes * plan.total_vectors,
        footprint_bytes=recursion_footprint_bytes(
            dimension, plan, spec, spmv=spmv, precision=precision
        ),
        coalescing=per_vector.coalescing,
        thread_efficiency=per_vector.thread_efficiency,
        precision=precision,
    )


def reduce_launch_stats(
    num_moments: int, total_vectors: int, *, precision: str = "double"
) -> KernelStats:
    """Stats of the moment-reduction launch (paper Fig. 4b).

    One thread per moment order; each sums ``total_vectors`` partial
    moments from global memory.
    """
    n = check_positive_int(num_moments, "num_moments")
    v = check_positive_int(total_vectors, "total_vectors")
    item = _itemsize(precision)
    return KernelStats(
        flops=float(n * v),
        gmem_read_bytes=float(n * v * item),
        gmem_write_bytes=float(n * item),
        footprint_bytes=float(n * v * item),
        coalescing=1.0,
        precision=precision,
    )
