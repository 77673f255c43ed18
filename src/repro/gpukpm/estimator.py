"""Analytic GPU time estimation — the same schedule, no execution.

The figure harness needs modeled times at the full paper parameters
(``R*S = 1792`` vectors, ``N`` up to 2048, dense ``D`` up to 4096) where
functional execution would take days on this host.  Because the pipeline
of :mod:`repro.gpukpm.pipeline` is a *deterministic* launch schedule,
its modeled time is a pure function of the parameters; this module
evaluates that function directly.  The tests verify (at small
parameters) that ``estimate_gpu_kpm_seconds`` equals the modeled time of
an executed run to float precision, so the extrapolation is exact with
respect to simulator semantics.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.gpu.costmodel import kernel_cost, transfer_cost
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.spmv import _matvec_model
from repro.gpukpm.stats import (
    plan_grid,
    recursion_launch_stats,
    reduce_launch_stats,
)
from repro.kpm.config import KPMConfig
from repro.sparse.cost import _itemsize
from repro.util.validation import check_positive_int

__all__ = ["gpu_kpm_breakdown", "estimate_gpu_kpm_seconds"]


def gpu_kpm_breakdown(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    spmv=None,
) -> dict[str, float]:
    """Modeled seconds per phase of the GPU pipeline.

    ``spmv`` (an :class:`repro.gpukpm.spmv.SpmvModel`) describes the
    stored matrix — upload arrays (its ``storage``), SpMV work, and
    irregular-access penalties all come from the model, matching what
    the executed pipeline charges.  ``None`` prices the dense sweep.

    Returns
    -------
    dict with keys ``"setup"``, ``"transfer"``, ``"kpm_recursion"``,
    ``"reduce_moments"`` — the same keys the executed pipeline reports.
    """
    if not isinstance(spec, GpuSpec):
        raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    dim = check_positive_int(dimension, "dimension")
    total_vectors = config.total_vectors
    num_moments = config.num_moments
    plan = plan_grid(total_vectors, config.block_size, spec)
    item = _itemsize(config.precision)

    # Transfers: upload H~ (the model's exact array list), download the
    # mu~ table and the reduced moments — matching the pipeline exactly.
    spmv = _matvec_model(spmv, dim, config.precision)
    upload = sum(transfer_cost(spec, b) for b in spmv.storage.upload_bytes)
    download = transfer_cost(spec, total_vectors * num_moments * item)
    download += transfer_cost(spec, num_moments * item)

    recursion_occupancy = compute_occupancy(
        spec, plan.block_size, shared_bytes_per_block=plan.block_size * 8
    )
    recursion = kernel_cost(
        spec,
        recursion_launch_stats(
            dim,
            num_moments,
            plan,
            spec,
            spmv=spmv,
            precision=config.precision,
        ),
        grid_blocks=plan.num_blocks,
        occupancy=recursion_occupancy,
    )
    reduce_blocks = -(-num_moments // plan.block_size)
    reduce_occupancy = compute_occupancy(spec, plan.block_size)
    reduction = kernel_cost(
        spec,
        reduce_launch_stats(num_moments, total_vectors, precision=config.precision),
        grid_blocks=reduce_blocks,
        occupancy=reduce_occupancy,
    )
    return {
        "setup": spec.setup_overhead_s,
        "transfer": upload + download,
        "kpm_recursion": recursion.total_seconds,
        "reduce_moments": reduction.total_seconds,
    }


def estimate_gpu_kpm_seconds(
    spec: GpuSpec = TESLA_C2050,
    dimension: int = 1000,
    config: KPMConfig | None = None,
    *,
    spmv=None,
) -> float:
    """Total modeled GPU seconds for a KPM run (sum of the breakdown)."""
    dimension = check_positive_int(dimension, "dimension")
    config = KPMConfig() if config is None else config
    return sum(gpu_kpm_breakdown(spec, dimension, config, spmv=spmv).values())
