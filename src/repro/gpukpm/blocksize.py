"""BLOCK_SIZE tuning — the paper's first item of future work (Sec. V).

"For the future plans, we are considering to quest a method to find the
best block size used in the GPU."  With the analytic estimator this
quest is a direct search: price the identical run at every candidate
BLOCK_SIZE and report the sweep.  The trade-off the sweep exposes:

* small blocks -> many blocks -> all SMs busy, but each block's
  reduction tree and occupancy-per-block shrink;
* large blocks -> ``R*S / BLOCK_SIZE`` falls below the SM count and part
  of the chip idles (the paper's own configuration, 1792/256 = 7 blocks
  on 14 SMs, loses half the device this way).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchError, ValidationError
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.estimator import estimate_gpu_kpm_seconds
from repro.kpm.config import KPMConfig
from repro.util.validation import check_power_of_two

__all__ = ["BlockSizePoint", "tune_block_size", "DEFAULT_CANDIDATES"]

#: Power-of-two candidates up to the Fermi block limit.  The launch
#: contract (RA004 / :func:`repro.util.validation.check_power_of_two`)
#: requires power-of-two block sizes — the shared-memory reduction trees
#: assume it — so the sweep prices exactly the launchable geometries.
DEFAULT_CANDIDATES = (8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class BlockSizePoint:
    """One sweep entry: the candidate and its modeled run time."""

    block_size: int
    num_blocks: int
    modeled_seconds: float


def tune_block_size(
    spec: GpuSpec = TESLA_C2050,
    dimension: int = 1000,
    config: KPMConfig | None = None,
    *,
    candidates=DEFAULT_CANDIDATES,
) -> tuple[BlockSizePoint, list[BlockSizePoint]]:
    """Sweep BLOCK_SIZE and return ``(best, all_points)``.

    Candidates exceeding the device's threads-per-block limit are
    skipped (they could not launch); at least one candidate must be
    feasible.
    """
    config = KPMConfig() if config is None else config
    points: list[BlockSizePoint] = []
    for candidate in candidates:
        candidate = check_power_of_two(candidate, "block size candidate")
        if candidate > spec.max_threads_per_block:
            continue
        trial = config.with_updates(block_size=candidate)
        try:
            seconds = estimate_gpu_kpm_seconds(spec, dimension, trial)
        except LaunchError:
            continue
        num_blocks = -(-trial.total_vectors // candidate)
        points.append(
            BlockSizePoint(
                block_size=candidate,
                num_blocks=num_blocks,
                modeled_seconds=seconds,
            )
        )
    if not points:
        raise ValidationError(
            "no feasible BLOCK_SIZE candidate for this device; pass smaller candidates"
        )
    # Ties break toward the smaller block: finer grids partition better
    # (multi-GPU) and never over-tile short vectors.
    best = min(points, key=lambda p: (p.modeled_seconds, p.block_size))
    return best, points
