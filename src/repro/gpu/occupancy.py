"""Occupancy calculation — how many blocks fit on an SM simultaneously.

Replicates the CUDA occupancy calculator's logic: resident blocks per SM
are limited by (a) the per-SM thread budget, (b) the per-SM block-slot
budget, (c) shared memory, and (d) registers; occupancy is the fraction
of the SM's warp slots kept busy.  Low occupancy reduces the device's
ability to hide memory latency, which the cost model folds into its
utilization factor.  BLOCK_SIZE tuning (the paper's §V future work)
is precisely the search over this function — see
:class:`repro.tune.Autotuner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchError, ValidationError
from repro.gpu.spec import GpuSpec
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = ["OccupancyResult", "compute_occupancy"]


@dataclass(frozen=True)
class OccupancyResult:
    """Residency of one kernel configuration on one SM.

    Attributes
    ----------
    blocks_per_sm:
        Concurrent blocks resident on one SM.
    warps_per_sm:
        Concurrent warps (``blocks_per_sm * warps_per_block``).
    occupancy:
        ``warps_per_sm / max_warps_per_sm`` in ``(0, 1]``.
    limiter:
        Which resource bound ``blocks_per_sm``:
        ``"threads" | "blocks" | "shared" | "registers"``.
    """

    blocks_per_sm: int
    warps_per_sm: int
    occupancy: float
    limiter: str


def compute_occupancy(
    spec: GpuSpec,
    threads_per_block: int,
    *,
    shared_bytes_per_block: int = 0,
    registers_per_thread: int = 20,
) -> OccupancyResult:
    """Occupancy of a launch configuration on ``spec``.

    Raises
    ------
    LaunchError
        If the configuration cannot run at all (block too large, shared
        memory or registers exceed the per-SM capacity for even one
        block).
    """
    if not isinstance(spec, GpuSpec):
        raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
    threads_per_block = check_positive_int(threads_per_block, "threads_per_block")
    shared_bytes_per_block = check_nonnegative_int(
        shared_bytes_per_block, "shared_bytes_per_block"
    )
    registers_per_thread = check_positive_int(registers_per_thread, "registers_per_thread")

    if threads_per_block > spec.max_threads_per_block:
        raise LaunchError(
            f"block of {threads_per_block} threads exceeds the device limit "
            f"of {spec.max_threads_per_block}"
        )
    if shared_bytes_per_block > spec.shared_mem_per_sm_bytes:
        raise LaunchError(
            f"{shared_bytes_per_block} bytes of shared memory per block exceed "
            f"the per-SM capacity of {spec.shared_mem_per_sm_bytes}"
        )
    registers_per_block = registers_per_thread * threads_per_block
    if registers_per_block > spec.registers_per_sm:
        raise LaunchError(
            f"{registers_per_block} registers per block exceed the per-SM "
            f"file of {spec.registers_per_sm}"
        )

    limits = {
        "threads": spec.max_threads_per_sm // threads_per_block,
        "blocks": spec.max_blocks_per_sm,
        "shared": (
            spec.shared_mem_per_sm_bytes // shared_bytes_per_block
            if shared_bytes_per_block
            else spec.max_blocks_per_sm
        ),
        "registers": spec.registers_per_sm // registers_per_block,
    }
    limiter = min(limits, key=limits.get)
    blocks_per_sm = limits[limiter]
    if blocks_per_sm < 1:
        raise LaunchError(
            f"configuration fits zero blocks per SM (limited by {limiter})"
        )

    # Warp-quantized thread count: a 33-thread block occupies 2 warps.
    warps_per_block = -(-threads_per_block // spec.warp_size)
    max_warps_per_sm = spec.max_threads_per_sm // spec.warp_size
    warps_per_sm = min(blocks_per_sm * warps_per_block, max_warps_per_sm)
    return OccupancyResult(
        blocks_per_sm=blocks_per_sm,
        warps_per_sm=warps_per_sm,
        occupancy=warps_per_sm / max_warps_per_sm,
        limiter=limiter,
    )
