"""CPU moment-engine backend with modeled Core i7 930 timing.

Functionally this backend runs the same NumPy numerics as the reference
engine (bit-identical random vectors, same recursion); additionally it
prices the computation on the configured :class:`~repro.cpu.CpuSpec` as
the paper's single-threaded C program would execute it:

* per Chebyshev step and random vector, one matrix-vector product in
  the storage the operator holds — the :class:`~repro.sparse.StorageCost`
  both cost models price: the **dense** ``H~`` (the paper's measured
  configuration), the CSR arrays or the padded ELL slots,
* the three-term update (axpy) and the moment dot product,
* random-vector generation.

:func:`estimate_cpu_kpm_seconds` exposes the analytic estimate without
executing — the harness uses it at the full paper parameters (see
DESIGN.md §5, functional-sampling note); tests verify the engine's
modeled time equals the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.costmodel import phase_time
from repro.cpu.spec import CORE_I7_930, CpuSpec
from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.moments import MomentData, stochastic_moments
from repro.sparse import StorageCost, as_operator
from repro.sparse.cost import _RNG_FLOPS_PER_ELEMENT, _itemsize, _priced
from repro.timing import TimingReport, WallTimer
from repro.util.validation import check_positive_int

__all__ = ["CpuModelEngine", "estimate_cpu_kpm_seconds", "cpu_kpm_breakdown"]


def cpu_kpm_breakdown(
    spec: CpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    storage: StorageCost | None = None,
) -> dict[str, float]:
    """Modeled seconds per phase of a full CPU KPM run.

    Parameters
    ----------
    spec:
        CPU model.
    dimension:
        ``D`` (the paper's ``H_SIZE``).
    config:
        KPM parameters (``N``, ``R``, ``S``).
    storage:
        The :class:`~repro.sparse.StorageCost` of the stored ``H~``;
        ``None`` means the dense sweep (the paper's measured
        configuration).  Its dimension and precision must be the run's.

    Returns
    -------
    dict with keys ``"random"``, ``"matvec"``, ``"axpy"``, ``"dot"``.
    """
    if not isinstance(spec, CpuSpec):
        raise ValidationError(f"spec must be a CpuSpec, got {type(spec).__name__}")
    dim = check_positive_int(dimension, "dimension")
    storage = _priced(storage, dim, config.precision)
    vectors = config.total_vectors
    steps = config.num_moments - 1  # matvecs per vector (r1 .. r_{N-1})
    item = _itemsize(config.precision)

    vector_bytes = dim * item
    footprint = storage.matrix_bytes + 4 * vector_bytes

    def seconds(count, flops, bytes_moved, footprint_bytes=footprint):
        return count * phase_time(
            spec, flops=flops, bytes_moved=bytes_moved, footprint_bytes=footprint_bytes
        )

    return {
        "random": seconds(
            vectors, _RNG_FLOPS_PER_ELEMENT * dim, vector_bytes, vector_bytes
        ),
        # Stream the stored matrix, read its operand elements, write y.
        "matvec": seconds(
            vectors * steps,
            storage.flops,
            storage.matrix_bytes + storage.operand_reads * item + vector_bytes,
        ),
        # y <- 2*y - r_prev fused over the vector: 2 flops, 2 reads 1 write.
        "axpy": seconds(vectors * steps, 2.0 * dim, 3 * vector_bytes),
        # <r0 | r_n> for each of the N moments.
        "dot": seconds(vectors * config.num_moments, 2.0 * dim, 2 * vector_bytes),
    }


def estimate_cpu_kpm_seconds(
    spec: CpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    storage: StorageCost | None = None,
) -> float:
    """Total modeled CPU seconds for a KPM run (sum of the breakdown)."""
    return sum(cpu_kpm_breakdown(spec, dimension, config, storage=storage).values())


@dataclass
class CpuModelEngine:
    """Moment engine running NumPy numerics with Core i7 930 timing.

    Each matvec is priced in the storage the operator holds
    (:meth:`StorageCost.of <repro.sparse.StorageCost.of>`): CSR arrays,
    ELL slots with their padding, or else the dense sweep of the
    paper's measured runs.
    """

    spec: CpuSpec = CORE_I7_930
    name: str = "cpu-model"

    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]:
        """Compute stochastic moments; report modeled + wall time."""
        op = as_operator(scaled_operator)
        with WallTimer() as timer:
            data = stochastic_moments(op, config)
        storage = StorageCost.of(op, precision=config.precision)
        breakdown = cpu_kpm_breakdown(self.spec, op.shape[0], config, storage=storage)
        report = TimingReport(
            backend=self.name,
            device=self.spec.name,
            modeled_seconds=sum(breakdown.values()),
            wall_seconds=timer.seconds,
            breakdown=breakdown,
        )
        return data, report
