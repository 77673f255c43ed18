"""Roofline + occupancy cost model for simulated kernel launches.

Given a launch's declared :class:`~repro.gpu.KernelStats`, the model
prices it as

    t = launch_overhead + max(t_compute, t_memory) / wave_efficiency

with

* ``t_compute = flops / (peak_dp * flop_efficiency * sm_utilization)``
* ``t_memory``: the *unique footprint* streams from DRAM once; re-reads
  beyond it run at L2 speed when the footprint fits the L2, else at DRAM
  speed.  Both channels are scaled by ``mem_efficiency``, the declared
  ``coalescing`` factor, and the bandwidth-saturation fraction (few
  resident blocks cannot keep the memory system busy).
* ``sm_utilization = min(1, grid_blocks / sm_count)`` — a 7-block grid on
  a 14-SM device leaves half the chip idle, the dominant inefficiency of
  the paper's ``num_blocks = R*S/BLOCK_SIZE`` decomposition.
* ``wave_efficiency``: blocks execute in waves of
  ``sm_count * blocks_per_sm``; a partially filled trailing wave wastes
  its idle slots (tail effect).

This is deliberately a first-order analytic model: every term is a
documented hardware-balance effect, and EXPERIMENTS.md records the
calibration constants used for the figure reproductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.gpu.kernel import KernelStats
from repro.gpu.occupancy import OccupancyResult
from repro.gpu.spec import GpuSpec

__all__ = [
    "CostBreakdown",
    "kernel_cost",
    "transfer_cost",
    "gather_miss_fraction",
    "row_imbalance_efficiency",
]

#: Column offsets within this many elements of the row index are assumed
#: to hit the cache line(s) the row's own output/diagonal already pulled
#: in — the regime of narrow-stencil lattice Hamiltonians.
GATHER_NEAR_WINDOW = 16.0


@dataclass(frozen=True)
class CostBreakdown:
    """Priced cost of one kernel launch.

    ``bound`` names the roofline side that dominated
    (``"compute"`` or ``"memory"``).
    """

    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    total_seconds: float
    bound: str
    sm_utilization: float
    wave_count: int


def kernel_cost(
    spec: GpuSpec,
    stats: KernelStats,
    *,
    grid_blocks: int,
    occupancy: OccupancyResult,
) -> CostBreakdown:
    """Price one launch on ``spec``; see the module docstring for the model."""
    if not isinstance(spec, GpuSpec):
        raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
    if grid_blocks < 1:
        raise ValidationError(f"grid_blocks must be >= 1, got {grid_blocks}")

    sm_utilization = min(1.0, grid_blocks / spec.sm_count)

    # Wave (tail) effect: blocks run in waves of sm_count * blocks_per_sm;
    # the last wave is padded to full width.
    wave_width = spec.sm_count * occupancy.blocks_per_sm
    waves = max(1, math.ceil(grid_blocks / wave_width))
    wave_efficiency = grid_blocks / (waves * min(wave_width, max(grid_blocks, 1)))
    wave_efficiency = min(1.0, max(wave_efficiency, 1.0 / waves))

    # Low occupancy limits latency hiding; model it as a soft floor on the
    # achievable fraction of peak (full effect below ~25% occupancy).
    latency_hiding = min(1.0, occupancy.occupancy / 0.25)

    peak_flops = (
        spec.peak_dp_flops if stats.precision == "double" else spec.peak_sp_flops
    )
    compute_rate = peak_flops * spec.flop_efficiency * sm_utilization
    compute_rate *= max(latency_hiding, 0.1) * stats.thread_efficiency
    compute_seconds = stats.flops / compute_rate if stats.flops else 0.0

    total_traffic = stats.gmem_read_bytes + stats.gmem_write_bytes
    footprint = stats.footprint_bytes or total_traffic
    footprint = min(footprint, total_traffic)

    # Bandwidth saturation: enough in-flight warps must cover the memory
    # latency.  Fermi warps sustain several outstanding cache lines each,
    # so ~4 resident warps per SM already keep DRAM busy; with fewer
    # total warps than that, bandwidth scales down.
    warps_per_block = max(1, occupancy.warps_per_sm // max(occupancy.blocks_per_sm, 1))
    total_warps = grid_blocks * warps_per_block
    saturation = min(1.0, total_warps / (spec.sm_count * 4.0))
    saturation = max(saturation, sm_utilization * 0.5)
    effective = (
        spec.mem_efficiency
        * stats.coalescing
        * stats.thread_efficiency
        * max(saturation, 0.05)
    )

    dram_bw = spec.mem_bandwidth_bytes_per_s * effective
    l2_bw = spec.l2_bandwidth_bytes_per_s * effective
    reread_bytes = total_traffic - footprint
    if footprint <= spec.l2_bytes:
        memory_seconds = footprint / dram_bw + reread_bytes / l2_bw
    else:
        memory_seconds = total_traffic / dram_bw

    body = max(compute_seconds, memory_seconds) / wave_efficiency
    total = spec.kernel_launch_overhead_s + body
    return CostBreakdown(
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        overhead_seconds=spec.kernel_launch_overhead_s,
        total_seconds=total,
        bound="compute" if compute_seconds >= memory_seconds else "memory",
        sm_utilization=sm_utilization,
        wave_count=waves,
    )


def transfer_cost(spec: GpuSpec, nbytes: int) -> float:
    """Seconds to move ``nbytes`` across the PCIe link (latency + bandwidth)."""
    if nbytes < 0:
        raise ValidationError(f"nbytes must be >= 0, got {nbytes}")
    return spec.pcie_latency_s + nbytes / spec.pcie_bandwidth_bytes_per_s


# ----------------------------------------------------------------------
# Irregular-access extensions (sparse SpMV block programs)
# ----------------------------------------------------------------------
def gather_miss_fraction(dimension: int, mean_abs_offset: float) -> float:
    """Fraction of ``x[indices]`` gather loads that miss nearby cache lines.

    The SpMV gather's locality is governed by how far the stored columns
    sit from their row: offsets within :data:`GATHER_NEAR_WINDOW`
    elements ride the cache lines the row already touched (banded
    lattice stencils — zero extra traffic), while offsets approaching
    ``dimension / 4`` scatter across the whole vector and each pull a
    fresh line.  The ramp between the two regimes is linear in the mean
    absolute offset — a first-order model matching the documented style
    of the roofline terms above.
    """
    dim = float(dimension)
    if dim <= 0:
        raise ValidationError(f"dimension must be positive, got {dimension}")
    if mean_abs_offset < 0:
        raise ValidationError(
            f"mean_abs_offset must be >= 0, got {mean_abs_offset}"
        )
    far = dim / 4.0
    if mean_abs_offset <= GATHER_NEAR_WINDOW or far <= GATHER_NEAR_WINDOW:
        return 0.0
    return min(1.0, (mean_abs_offset - GATHER_NEAR_WINDOW) / (far - GATHER_NEAR_WINDOW))


def row_imbalance_efficiency(
    row_nnz_max: float, row_nnz_mean: float, *, granularity: int = 1
) -> float:
    """Lockstep efficiency of a row-parallel SpMV under skewed row lengths.

    Threads (or warp teams of ``granularity`` lanes) assigned to short
    rows idle while the longest row finishes its sweep, so the useful
    fraction of lanes is ``ceil(mean/g) / ceil(max/g)``.  Uniform rows
    give 1.0; one long row among short ones drags every team down.
    """
    if granularity < 1:
        raise ValidationError(f"granularity must be >= 1, got {granularity}")
    if row_nnz_max < row_nnz_mean or row_nnz_mean < 0:
        raise ValidationError(
            f"need row_nnz_max >= row_nnz_mean >= 0, got "
            f"{row_nnz_max}, {row_nnz_mean}"
        )
    if row_nnz_max <= 0:
        return 1.0
    mean_passes = math.ceil(row_nnz_mean / granularity)
    max_passes = math.ceil(row_nnz_max / granularity)
    return max(mean_passes, 1) / max(max_passes, 1)
