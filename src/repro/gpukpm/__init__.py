"""The paper's GPU KPM implementation (Sec. III), on the simulator.

Work decomposition exactly as the paper describes:

* ``R*S`` random vectors total; ``num_blocks = ceil(R*S / BLOCK_SIZE)``
  thread blocks, each owning ``BLOCK_SIZE`` vectors;
* inside a block, threads parallelize over the ``H_SIZE`` vector
  elements while the block walks its vectors and the Chebyshev orders
  (the block's global-memory workspace holds 4 vectors, swapped by
  pointer — paper Fig. 4a).  The cost model prices that walk; the
  emulator advances a block's vectors in lockstep instead, one
  ``DeviceMatrix.matmat`` sweep of their ``(D, B)`` panel per order;
* per-vector moments ``mu~_n`` land in global memory and a second kernel
  reduces them to ``mu_n`` (paper Fig. 4b).

:class:`GpuKPM` runs this pipeline functionally on a
:class:`~repro.gpu.Device` and reports modeled Tesla C2050 time;
:func:`estimate_gpu_kpm_seconds` prices the identical launch schedule
without executing (used by the figure harness at full paper parameters).
"""

from repro.gpukpm.stats import (
    GridPlan,
    plan_grid,
    recursion_launch_stats,
    reduce_launch_stats,
    per_vector_recursion_stats,
)
from repro.gpukpm.memory_plan import MemoryPlan, plan_memory, paper_memory_bytes
from repro.gpukpm.pipeline import CheckpointChunk, GpuKPM
from repro.gpukpm.spmv import (
    SPMV_FORMATS,
    VECTOR_WIDTHS,
    SpmvModel,
    default_spmv_format,
    spmv_model_for,
    uniform_csr_model,
)
from repro.gpukpm.estimator import estimate_gpu_kpm_seconds, gpu_kpm_breakdown
from repro.gpukpm.conductivity_gpu import (
    GpuConductivity,
    estimate_gpu_conductivity_seconds,
    plan_conductivity_memory,
    per_vector_conductivity_stats,
)

__all__ = [
    "GridPlan",
    "plan_grid",
    "recursion_launch_stats",
    "reduce_launch_stats",
    "per_vector_recursion_stats",
    "MemoryPlan",
    "plan_memory",
    "paper_memory_bytes",
    "CheckpointChunk",
    "GpuKPM",
    "SPMV_FORMATS",
    "VECTOR_WIDTHS",
    "SpmvModel",
    "default_spmv_format",
    "spmv_model_for",
    "uniform_csr_model",
    "estimate_gpu_kpm_seconds",
    "gpu_kpm_breakdown",
    "GpuConductivity",
    "estimate_gpu_conductivity_seconds",
    "plan_conductivity_memory",
    "per_vector_conductivity_stats",
]
