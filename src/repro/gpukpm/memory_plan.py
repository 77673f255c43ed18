"""Device-memory planning — paper Sec. III-B2, formula and correction.

The paper states the total device memory as

    num_blocks x H_SIZE x (8 N + 32)  bytes,

i.e. the 4-vector workspaces (``num_blocks x 4 x H_SIZE x 8``) plus a
moment buffer it sizes as ``num_blocks x N x H_SIZE x 8``.  The latter
over-counts: ``mu~`` holds one scalar per (vector, order), so the buffer
needs ``R*S x N x 8`` bytes — it does not scale with ``H_SIZE``.  (With
the paper's own numbers, Fig. 5's N=1024 run would need
7 x 1000 x (8*1024 + 32) ~ 55 MB by the formula versus ~15 MB actually.)

:func:`plan_memory` reports both numbers plus the Hamiltonian storage
(which the paper's formula omits entirely) and checks fit against the
device capacity; the unit tests pin the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.gpu.spec import GpuSpec
from repro.gpukpm.spmv import _matvec_model
from repro.gpukpm.stats import plan_grid
from repro.kpm.config import KPMConfig
from repro.sparse.cost import _itemsize
from repro.util.format import format_bytes
from repro.util.validation import check_positive_int

__all__ = ["paper_memory_bytes", "MemoryPlan", "plan_memory"]


def paper_memory_bytes(num_blocks: int, h_size: int, num_moments: int) -> int:
    """The paper's Sec. III-B2 total: ``num_blocks * H_SIZE * (8N + 32)``."""
    num_blocks = check_positive_int(num_blocks, "num_blocks")
    h_size = check_positive_int(h_size, "h_size")
    num_moments = check_positive_int(num_moments, "num_moments")
    return num_blocks * h_size * (8 * num_moments + 32)


@dataclass(frozen=True)
class MemoryPlan:
    """Planned device allocations of one GPU KPM run.

    ``paper_bytes`` is the paper's formula for comparison;
    ``total_bytes`` is what the pipeline actually allocates.
    """

    matrix_bytes: int
    workspace_bytes: int
    moment_table_bytes: int
    moment_result_bytes: int
    paper_bytes: int

    @property
    def total_bytes(self) -> int:
        """Actual allocation total of the pipeline."""
        return (
            self.matrix_bytes
            + self.workspace_bytes
            + self.moment_table_bytes
            + self.moment_result_bytes
        )

    def fits(self, spec: GpuSpec) -> bool:
        """True if the actual allocations fit the device's VRAM."""
        return self.total_bytes <= spec.global_mem_bytes

    def summary(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join(
            [
                f"matrix       : {format_bytes(self.matrix_bytes)}",
                f"workspace    : {format_bytes(self.workspace_bytes)}",
                f"moment table : {format_bytes(self.moment_table_bytes)}",
                f"moment result: {format_bytes(self.moment_result_bytes)}",
                f"total        : {format_bytes(self.total_bytes)}",
                f"paper formula: {format_bytes(self.paper_bytes)} (Sec. III-B2)",
            ]
        )


def plan_memory(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    spmv=None,
) -> MemoryPlan:
    """Compute the allocation plan the pipeline will perform.

    ``spmv`` is the :class:`~repro.gpukpm.spmv.SpmvModel` the run is
    charged with (``GpuKPM.last_spmv``); its storage's upload arrays are
    the matrix allocations.  ``None`` plans the paper's dense buffer.
    Matches :class:`repro.gpukpm.GpuKPM` byte-for-byte (tests pin this
    against the device pool's peak usage).
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    dim = check_positive_int(dimension, "dimension")
    plan = plan_grid(config.total_vectors, config.block_size, spec)
    item = _itemsize(config.precision)
    return MemoryPlan(
        matrix_bytes=_matvec_model(spmv, dim, config.precision).storage.matrix_bytes,
        workspace_bytes=plan.num_blocks * 4 * dim * item,
        moment_table_bytes=config.total_vectors * config.num_moments * item,
        moment_result_bytes=config.num_moments * item,
        paper_bytes=paper_memory_bytes(plan.num_blocks, dim, config.num_moments),
    )
