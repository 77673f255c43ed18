"""CPU moment-engine backend with modeled Core i7 930 timing.

Functionally this backend runs the same NumPy numerics as the reference
engine (bit-identical random vectors, same recursion); additionally it
prices the computation on the configured :class:`~repro.cpu.CpuSpec` as
the paper's single-threaded C program would execute it:

* per Chebyshev step and random vector, one matrix-vector product over
  the **dense** ``H~`` (the paper's measured configuration) or the CSR
  arrays when the operator is sparse,
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
from repro.sparse import CSRMatrix, ELLMatrix, as_operator
from repro.timing import TimingReport, WallTimer
from repro.util.validation import check_positive_int

__all__ = ["CpuModelEngine", "estimate_cpu_kpm_seconds", "cpu_kpm_breakdown"]

_FLOAT_BYTES = 8
_INDEX_BYTES = 8
# Cost of one uniform random double in a compiled xorshift/LCG loop.
_RNG_FLOPS_PER_ELEMENT = 4.0


def _matvec_terms(dim: int, precision: str, nnz: int | None) -> tuple[int, float, int]:
    """``(matrix_bytes, flops, bytes_moved)`` of one ``H~ @ x``.

    ``nnz=None`` is the dense sweep (the paper's measured configuration);
    otherwise the CSR arrays of ``nnz`` stored entries.
    """
    item = _FLOAT_BYTES if precision == "double" else 4
    vector_bytes = dim * item
    if nnz is None:
        matrix_bytes = dim * dim * item
        # stream H~, read x, write y
        return matrix_bytes, 2.0 * dim * dim, matrix_bytes + 2 * vector_bytes
    nnz = check_positive_int(nnz, "nnz")
    matrix_bytes = nnz * (item + _INDEX_BYTES) + (dim + 1) * _INDEX_BYTES
    # values+indices stream, gathered x reads, result writes
    return matrix_bytes, 2.0 * nnz, matrix_bytes + nnz * item + vector_bytes


def cpu_kpm_breakdown(
    spec: CpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    nnz: int | None = None,
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
    nnz:
        Stored entries of a CSR Hamiltonian; ``None`` means the dense
        path (the paper's measured configuration).

    Returns
    -------
    dict with keys ``"random"``, ``"matvec"``, ``"axpy"``, ``"dot"``.
    """
    if not isinstance(spec, CpuSpec):
        raise ValidationError(f"spec must be a CpuSpec, got {type(spec).__name__}")
    dim = check_positive_int(dimension, "dimension")
    vectors = config.total_vectors
    steps = config.num_moments - 1  # matvecs per vector (r1 .. r_{N-1})
    item = _FLOAT_BYTES if config.precision == "double" else 4

    vector_bytes = dim * item
    matrix_bytes, matvec_flops, matvec_bytes = _matvec_terms(dim, config.precision, nnz)
    footprint = matrix_bytes + 4 * vector_bytes

    random_seconds = vectors * phase_time(
        spec,
        flops=_RNG_FLOPS_PER_ELEMENT * dim,
        bytes_moved=vector_bytes,
        footprint_bytes=vector_bytes,
    )
    matvec_seconds = vectors * steps * phase_time(
        spec,
        flops=matvec_flops,
        bytes_moved=matvec_bytes,
        footprint_bytes=footprint,
    )
    # y <- 2*y - r_prev fused over the vector: 2 flops, 2 reads 1 write.
    axpy_seconds = vectors * steps * phase_time(
        spec,
        flops=2.0 * dim,
        bytes_moved=3 * vector_bytes,
        footprint_bytes=footprint,
    )
    # <r0 | r_n> for each of the N moments.
    dot_seconds = vectors * config.num_moments * phase_time(
        spec,
        flops=2.0 * dim,
        bytes_moved=2 * vector_bytes,
        footprint_bytes=footprint,
    )
    return {
        "random": random_seconds,
        "matvec": matvec_seconds,
        "axpy": axpy_seconds,
        "dot": dot_seconds,
    }


def estimate_cpu_kpm_seconds(
    spec: CpuSpec,
    dimension: int,
    config: KPMConfig,
    *,
    nnz: int | None = None,
) -> float:
    """Total modeled CPU seconds for a KPM run (sum of the breakdown)."""
    return sum(cpu_kpm_breakdown(spec, dimension, config, nnz=nnz).values())


@dataclass
class CpuModelEngine:
    """Moment engine running NumPy numerics with Core i7 930 timing.

    The operator's storage decides the priced path: a
    :class:`~repro.sparse.CSRMatrix` is priced as CSR SpMV, anything else
    as the dense sweep (matching the paper's dense measured runs).
    """

    spec: CpuSpec = CORE_I7_930
    name: str = "cpu-model"

    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]:
        """Compute stochastic moments; report modeled + wall time."""
        op = as_operator(scaled_operator)
        # Sparse storage (CSR or ELL) prices as sparse SpMV; dense
        # operators pay the full O(D^2) sweep.
        nnz = op.nnz_stored if isinstance(op, (CSRMatrix, ELLMatrix)) else None
        with WallTimer() as timer:
            data = stochastic_moments(op, config)
        breakdown = cpu_kpm_breakdown(self.spec, op.shape[0], config, nnz=nnz)
        report = TimingReport(
            backend=self.name,
            device=self.spec.name,
            modeled_seconds=sum(breakdown.values()),
            wall_seconds=timer.seconds,
            breakdown=breakdown,
        )
        return data, report
