"""Shared-memory (OpenMP-style) CPU parallelization — paper Sec. V.

"The parallelization of the KPM on a message passing and a shared
memory paradigm is also challenging because the recursive reference to
get r_n becomes a bottleneck."  For the *stochastic* KPM that bottleneck
dissolves the same way it does on the GPU: random vectors are
independent, so threads take vectors, not vector elements — no
fine-grain recursion dependency crosses a thread.

What limits multicore scaling instead is the memory system: every
thread streams the same dense ``H~``, and the chip's aggregate DRAM
bandwidth saturates well below ``threads x single_thread_bandwidth``.
This module models exactly that:

* compute throughput scales linearly with threads;
* memory-bound phases speed up only to the aggregate-over-single
  bandwidth ratio (:data:`AGGREGATE_BANDWIDTH_FACTOR`), after which the
  phase becomes compute-bound again and scales with threads from there.

The resulting ablation answers a question the paper leaves open: how
much of the reported 3.5-4x GPU advantage survives against a fully used
socket rather than one core.
"""

from __future__ import annotations

from repro.cpu.backend import cpu_kpm_breakdown
from repro.cpu.spec import CORE_I7_930, CpuSpec
from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.sparse import StorageCost
from repro.sparse.cost import _priced
from repro.util.validation import check_positive_int

__all__ = [
    "AGGREGATE_BANDWIDTH_FACTOR",
    "parallel_speedup_factor",
    "estimate_parallel_cpu_kpm_seconds",
]

#: Aggregate socket bandwidth over sustained single-thread bandwidth.
#: Nehalem triple-channel DDR3: ~21 GB/s aggregate vs ~12 GB/s for one
#: streaming thread.
AGGREGATE_BANDWIDTH_FACTOR = 1.75


def parallel_speedup_factor(threads: int, *, memory_bound: bool) -> float:
    """Scaling factor of one phase on ``threads`` cores.

    Compute-bound phases scale linearly; memory-bound phases saturate at
    the aggregate-bandwidth ratio.
    """
    threads = check_positive_int(threads, "threads")
    if memory_bound:
        return float(min(threads, AGGREGATE_BANDWIDTH_FACTOR))
    return float(threads)


def estimate_parallel_cpu_kpm_seconds(
    spec: CpuSpec = CORE_I7_930,
    dimension: int = 1000,
    config: KPMConfig | None = None,
    *,
    threads: int = 4,
    storage: StorageCost | None = None,
) -> float:
    """Modeled KPM wall time on ``threads`` cores of ``spec``.

    Vectors are partitioned across threads (the coarse-grain
    decomposition that sidesteps the paper's recursion-bottleneck worry),
    so each single-thread phase time divides by its
    :func:`parallel_speedup_factor`; the memory-bound matvec additionally
    floors at its threads-divided compute time (once bandwidth
    saturates, adding cores still shrinks the arithmetic share).
    ``storage`` prices the stored ``H~`` as in
    :func:`~repro.cpu.cpu_kpm_breakdown`; ``None`` is the dense sweep.
    """
    config = KPMConfig() if config is None else config
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    threads = check_positive_int(threads, "threads")
    breakdown = cpu_kpm_breakdown(spec, dimension, config, storage=storage)
    matvec_flops = _priced(storage, dimension, config.precision).flops
    compute_seconds = (
        config.total_vectors * (config.num_moments - 1) * matvec_flops / spec.peak_flops
    )
    matvec_single = breakdown["matvec"]
    memory_bound = matvec_single > compute_seconds * 1.001

    total = 0.0
    for phase, seconds in breakdown.items():
        if phase == "matvec" and memory_bound:
            bandwidth_factor = parallel_speedup_factor(threads, memory_bound=True)
            total += max(seconds / bandwidth_factor, compute_seconds / threads)
        else:
            total += seconds / threads
    return total
