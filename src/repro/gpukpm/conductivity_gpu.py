"""Kubo–Greenwood conductivity on the simulated GPU.

The paper accelerates the DoS; the obvious next workload on the same
platform is transport (this is the path later taken by KITE on real
GPUs).  The double expansion maps onto the paper's decomposition
unchanged — blocks own random vectors — but each vector now needs two
full Chebyshev *stacks* resident in global memory:

    L_n = T_n(H~) (A|r>),  R_m = A (T_m(H~)|r>),   n, m < N,

followed by the Gram product ``mu_nm += L R^T`` (an ``N x N x D``
contraction, the new compute-heavy part: the DoS recursion is
bandwidth-bound, the conductivity contraction is FLOP-bound).  Each
block accumulates a private ``(N, N)`` partial that a reduction kernel
averages.

Memory per block rises from the paper's 4 vectors to ``2N`` vectors —
the reason transport runs use far smaller ``N`` than DoS runs on the
same card (3 GB VRAM caps ``N`` near 10^4 x D elements).
:func:`plan_conductivity_memory` exposes the budget; the
:class:`GpuConductivity` runner enforces it through the device pool.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.gpu.contracts import ArraySpec, KernelContract, MatrixSpec
from repro.gpu.costmodel import kernel_cost, transfer_cost
from repro.gpu.device import Device
from repro.gpu.kernel import KernelStats, kernel
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.kernels import DeviceMatrix
from repro.gpukpm.pipeline import GpuKPM
from repro.gpukpm.spmv import _matvec_model
from repro.gpukpm.stats import plan_grid
from repro.kpm.config import KPMConfig
from repro.kpm.random_vectors import random_vector
from repro.sparse import as_operator
from repro.sparse.cost import _RNG_FLOPS_PER_ELEMENT, _itemsize
from repro.timing import TimingReport, WallTimer
from repro.util.validation import check_positive_int

__all__ = [
    "per_vector_conductivity_stats",
    "conductivity_reduce_stats",
    "plan_conductivity_memory",
    "estimate_gpu_conductivity_seconds",
    "GpuConductivity",
]

def per_vector_conductivity_stats(
    dimension: int,
    num_moments: int,
    *,
    spmv=None,
    current_spmv=None,
    block_size: int | None = None,
    precision: str = "double",
) -> KernelStats:
    """Work of the double expansion for ONE random vector.

    Two Chebyshev recursions over ``H~`` (with the stacks written to
    global memory), ``N + 1`` applications of the current operator, and
    the ``2 N^2 D`` Gram contraction.  ``spmv`` and ``current_spmv`` are
    the :class:`~repro.gpukpm.spmv.SpmvModel` of ``H~`` and of the
    current operator, each of ``dimension`` and ``precision`` (another
    is refused); ``None`` prices a dense matrix.
    """
    dim = check_positive_int(dimension, "dimension")
    n = check_positive_int(num_moments, "num_moments")
    item = _itemsize(precision)
    thread_efficiency = (
        1.0 if block_size is None else min(1.0, dim / check_positive_int(block_size, "block_size"))
    )
    vec_bytes = dim * item
    h = _matvec_model(spmv, dim, precision)
    a = _matvec_model(current_spmv, dim, precision)

    flops = _RNG_FLOPS_PER_ELEMENT * dim          # RNG
    read = 0.0
    write = float(vec_bytes)
    # Two recursions of N-1 steps each (matvec + axpy), stacks stored.
    flops += 2 * (n - 1) * (h.flops_per_matvec + 2.0 * dim)
    read += 2 * (n - 1) * (h.read_bytes_per_matvec + 2.0 * vec_bytes)
    write += 2 * (n - 1) * vec_bytes
    # Current operator: once on |r>, once per phi_m.
    flops += (n + 1) * a.flops_per_matvec
    read += (n + 1) * a.read_bytes_per_matvec
    write += (n + 1) * vec_bytes
    # Gram contraction mu_nm += L R^T: 2 N^2 D flops, stacks re-streamed.
    flops += 2.0 * n * n * dim
    read += 2.0 * n * vec_bytes + n * n * item
    write += n * n * item
    return KernelStats(
        flops=flops,
        gmem_read_bytes=read,
        gmem_write_bytes=write,
        coalescing=h.coalescing,
        thread_efficiency=thread_efficiency,
        precision=precision,
    )


def conductivity_reduce_stats(num_moments: int, num_blocks: int, *, precision: str = "double") -> KernelStats:
    """Stats of averaging the per-block ``(N, N)`` partials."""
    n = check_positive_int(num_moments, "num_moments")
    blocks = check_positive_int(num_blocks, "num_blocks")
    item = _itemsize(precision)
    return KernelStats(
        flops=float(n * n * blocks),
        gmem_read_bytes=float(n * n * blocks * item),
        gmem_write_bytes=float(n * n * item),
        footprint_bytes=float(n * n * blocks * item),
        coalescing=1.0,
        precision=precision,
    )


def plan_conductivity_memory(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    spmv=None,
    current_spmv=None,
) -> dict[str, int]:
    """Planned device bytes per buffer (matches the runner's allocations)."""
    plan = plan_grid(config.total_vectors, config.block_size, spec)
    precision = config.precision
    item = _itemsize(precision)
    dim = check_positive_int(dimension, "dimension")
    n = config.num_moments
    return {
        "hamiltonian": _matvec_model(spmv, dim, precision).storage.matrix_bytes,
        "current": _matvec_model(current_spmv, dim, precision).storage.matrix_bytes,
        "stacks": plan.num_blocks * 2 * n * dim * item,
        "partials": plan.num_blocks * n * n * item,
        "result": n * n * item,
    }


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
# Launch-domain contract (rules RA016–RA020): blocks own disjoint
# vector cells of `plan`, a (2, N, D) stack pair and an (N, N) partial
# per block; each operator is uploaded dense, CSR or ELL, so both
# declare an ELL width.
_KPM_CONDUCTIVITY_CONTRACT = KernelContract(
    symbols={
        "D": (1, None),
        "num_vectors": (1, None),
        "num_moments": (1, None),
        "nnz": (0, None),
        "a_nnz": (0, None),
        "ell_width": (0, None),
        "a_ell_width": (0, None),
    },
    arrays={
        "stacks": ArraySpec(
            extent=("grid", 2, "num_moments", "D"), role="scratch"
        ),
        "partials": ArraySpec(
            extent=("grid", "num_moments", "num_moments"),
            role="out",
            coverage=0,
        ),
    },
    matrices={
        "matrix": MatrixSpec("D", "D", nnz="nnz", ell_width="ell_width"),
        "current": MatrixSpec("D", "D", nnz="a_nnz", ell_width="a_ell_width"),
    },
    partitions={"plan": "num_vectors"},
)


@kernel(
    "kpm_conductivity", pow2_block=True, contract=_KPM_CONDUCTIVITY_CONTRACT
)
def _kpm_conductivity_kernel(
    ctx,
    matrix: DeviceMatrix,
    current: DeviceMatrix,
    stacks,
    partials,
    plan,
    per_vector_stats,
    footprint_bytes,
    num_moments: int,
    vectors_per_realization: int,
    vector_kind: str,
    seed,
):
    """Per-block double expansion over the block's vectors.

    ``stacks.data[block]`` holds the ``(2, N, D)`` L/R workspace;
    ``partials.data[block]`` accumulates the block's ``(N, N)`` sum.
    """
    block_vectors = plan.vectors_of(ctx.linear_block_id)
    if len(block_vectors) == 0:  # pragma: no cover - plan never makes these
        return
    workspace = stacks.data[ctx.linear_block_id]
    accumulator = partials.data[ctx.linear_block_id]
    dim = workspace.shape[2]
    ctx.shared_alloc(ctx.threads_per_block * 8)
    # Fresh VRAM is not zero on real hardware: the accumulator must be
    # written before the += below reads it (sanitizer SAN001).
    accumulator[...] = 0.0

    def chebyshev_fill(out, start):
        out[0] = start
        if num_moments > 1:
            out[1] = matrix.matvec(start)
            for order in range(2, num_moments):
                out[order] = 2.0 * matrix.matvec(out[order - 1]) - out[order - 2]

    for v in block_vectors:
        realization, vector_index = divmod(v, vectors_per_realization)
        r0 = random_vector(
            dim,
            vector_kind,
            seed=seed,
            realization=realization,
            vector_index=vector_index,
        ).astype(workspace.dtype)
        chebyshev_fill(workspace[0], current.matvec(r0))   # L_n = T_n (A r)
        chebyshev_fill(workspace[1], r0)                   # phi_m = T_m r
        for m in range(num_moments):
            workspace[1][m] = current.matvec(workspace[1][m])  # R_m = A phi_m
        accumulator += workspace[0] @ workspace[1].T / dim

    ctx.charge(
        flops=per_vector_stats.flops * len(block_vectors),
        gmem_read=per_vector_stats.gmem_read_bytes * len(block_vectors),
        gmem_write=per_vector_stats.gmem_write_bytes * len(block_vectors),
        footprint=footprint_bytes,
        coalescing=per_vector_stats.coalescing,
        thread_efficiency=per_vector_stats.thread_efficiency,
        precision=per_vector_stats.precision,
    )


# The reduction is pinned to block 0 by its guard, so the full write of
# `result` is a single-block exactly-once cover (RA019 "pinned_full").
_REDUCE_CONDUCTIVITY_CONTRACT = KernelContract(
    symbols={"num_moments": (1, None), "num_blocks": (1, None)},
    arrays={
        "partials": ArraySpec(
            extent=("num_blocks", "num_moments", "num_moments"), role="in"
        ),
        "result": ArraySpec(
            extent=("num_moments", "num_moments"), role="out", coverage=0
        ),
    },
)


@kernel(
    "reduce_conductivity", pow2_block=True, contract=_REDUCE_CONDUCTIVITY_CONTRACT
)
def _reduce_conductivity_kernel(ctx, partials, result, vectors_per_block_weighting, reduce_stats):
    """Average the per-block partial sums into the final ``(N, N)`` table."""
    if ctx.linear_block_id != 0:
        return
    result.data[...] = partials.data.sum(axis=0) / vectors_per_block_weighting
    ctx.charge(
        flops=reduce_stats.flops,
        gmem_read=reduce_stats.gmem_read_bytes,
        gmem_write=reduce_stats.gmem_write_bytes,
        footprint=reduce_stats.footprint_bytes,
        coalescing=reduce_stats.coalescing,
        precision=reduce_stats.precision,
    )


# ----------------------------------------------------------------------
# Runner + estimator
# ----------------------------------------------------------------------
def _launch_terms(spec: GpuSpec, dim: int, config: KPMConfig, spmv, current_spmv):
    """Grid plan, per-vector charges and footprint of the main launch."""
    n = config.num_moments
    item = _itemsize(config.precision)
    plan = plan_grid(config.total_vectors, config.block_size, spec)
    pv_stats = per_vector_conductivity_stats(
        dim,
        n,
        spmv=spmv,
        current_spmv=current_spmv,
        block_size=plan.block_size,
        precision=config.precision,
    )
    footprint = (
        plan_conductivity_memory(
            spec, dim, config, spmv=spmv, current_spmv=current_spmv
        )["hamiltonian"]
        + min(plan.num_blocks, spec.sm_count) * 2 * n * dim * item
    )
    return plan, pv_stats, footprint


class GpuConductivity:
    """Double-expansion runner on one simulated device.

    ``H~`` and the current operator each run in the storage they arrive
    in (dense, CSR or ELL): like the DoS pipeline, each gets the
    :class:`~repro.gpukpm.spmv.SpmvModel` of
    :meth:`GpuKPM.resolve_spmv <repro.gpukpm.GpuKPM.resolve_spmv>` and
    is uploaded in that storage.
    """

    def __init__(self, spec: GpuSpec = TESLA_C2050):
        if not isinstance(spec, GpuSpec):
            raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
        self.spec = spec
        self.last_device: Device | None = None
        self._pipeline = GpuKPM(spec)

    def run(
        self, scaled_operator, current, config: KPMConfig
    ) -> tuple[np.ndarray, TimingReport]:
        """Compute ``mu_nm`` on the device; returns the table + timing."""
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        h_op = as_operator(scaled_operator)
        a_op = as_operator(current)
        if h_op.shape != a_op.shape:
            raise ValidationError("Hamiltonian and current dimensions differ")
        dim = h_op.shape[0]
        n = config.num_moments
        dtype = np.float64 if config.precision == "double" else np.float32
        spmv, current_spmv = (
            self._pipeline.resolve_spmv(op, config)[0] for op in (h_op, a_op)
        )
        plan, pv_stats, footprint = _launch_terms(
            self.spec, dim, config, spmv, current_spmv
        )
        reduce_stats = conductivity_reduce_stats(
            n, plan.num_blocks, precision=config.precision
        )

        with WallTimer() as timer:
            device = Device(self.spec)
            self.last_device = device
            try:
                matrix = GpuKPM._upload_matrix(device, h_op, spmv, dim, dtype, name="H")
                current_dev = GpuKPM._upload_matrix(
                    device, a_op, current_spmv, dim, dtype, name="A"
                )
                stacks = device.alloc((plan.num_blocks, 2, n, dim), dtype=dtype, name="stacks")
                partials = device.alloc((plan.num_blocks, n, n), dtype=dtype, name="partials")
                result = device.alloc((n, n), dtype=dtype, name="mu_nm")
                device.launch(
                    _kpm_conductivity_kernel,
                    grid=plan.num_blocks,
                    block=plan.block_size,
                    args=(
                        matrix,
                        current_dev,
                        stacks,
                        partials,
                        plan,
                        pv_stats,
                        footprint,
                        n,
                        config.num_random_vectors,
                        config.vector_kind,
                        config.seed,
                    ),
                    shared_bytes_per_block=plan.block_size * 8,
                )
                device.launch(
                    _reduce_conductivity_kernel,
                    # Single-block tree reduction over the per-block partial
                    # tables (paper Fig. 4b analogue); the geometry is fixed
                    # by the algorithm, not planned.
                    grid=1,  # repro: noqa[RA004]
                    block=plan.block_size,
                    args=(partials, result, float(config.total_vectors), reduce_stats),
                )
                host_result = np.empty((n, n), dtype=dtype)
                device.memcpy_dtoh(host_result, result)
                result.free()
                partials.free()
                stacks.free()
                current_dev.free()
                matrix.free()
            finally:
                # The normal path frees each buffer after its last use;
                # what an exception left live (a partial upload, the
                # buffers of a failed allocation or launch) is freed here.
                for array in device.memory.live_arrays:
                    array.free()

        report = self._pipeline._timing_report(device, timer.seconds)
        return host_result.astype(np.float64), report


def estimate_gpu_conductivity_seconds(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    spmv=None,
    current_spmv=None,
) -> float:
    """Analytic modeled time of :meth:`GpuConductivity.run` (exact match).

    ``spmv`` and ``current_spmv`` describe the two stored matrices as in
    :func:`per_vector_conductivity_stats`; the runner charges each
    operator with ``spmv_model_for(op, default_spmv_format(op))``.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    dim = check_positive_int(dimension, "dimension")
    n = config.num_moments
    item = _itemsize(config.precision)
    plan, pv_stats, footprint = _launch_terms(spec, dim, config, spmv, current_spmv)

    uploads = 0.0
    for model in (spmv, current_spmv):
        storage = _matvec_model(model, dim, config.precision).storage
        uploads += sum(transfer_cost(spec, b) for b in storage.upload_bytes)
    download = transfer_cost(spec, n * n * item)

    launch_stats = KernelStats(
        flops=pv_stats.flops * plan.total_vectors,
        gmem_read_bytes=pv_stats.gmem_read_bytes * plan.total_vectors,
        gmem_write_bytes=pv_stats.gmem_write_bytes * plan.total_vectors,
        footprint_bytes=footprint,
        coalescing=pv_stats.coalescing,
        thread_efficiency=pv_stats.thread_efficiency,
        precision=pv_stats.precision,
    )
    occupancy = compute_occupancy(
        spec, plan.block_size, shared_bytes_per_block=plan.block_size * 8
    )
    main = kernel_cost(
        spec, launch_stats, grid_blocks=plan.num_blocks, occupancy=occupancy
    )
    reduce_occupancy = compute_occupancy(spec, plan.block_size)
    reduction = kernel_cost(
        spec,
        conductivity_reduce_stats(n, plan.num_blocks, precision=config.precision),
        grid_blocks=1,
        occupancy=reduce_occupancy,
    )
    return (
        spec.setup_overhead_s
        + uploads
        + download
        + main.total_seconds
        + reduction.total_seconds
    )
