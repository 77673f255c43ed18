"""High-level density-of-states pipeline — the library's front door.

``compute_dos(H, KPMConfig(...), backend="gpu-sim")`` performs the whole
paper workflow: Gerschgorin rescaling, stochastic Chebyshev moments on
the chosen backend, Jackson-damped reconstruction, and the inverse
energy transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.engines import get_engine
from repro.kpm.moments import MomentData
from repro.kpm.reconstruct import (
    apply_kernel_damping,
    dos_from_moments,
    evaluate_series_at,
)
from repro.kpm.rescale import Rescaling, rescale_operator
from repro.trace.tracer import current_tracer
from repro.sparse import as_operator
from repro.timing import TimingReport

__all__ = ["DoSResult", "compute_dos", "validate_spectral_operator"]


@dataclass
class DoSResult:
    """The reconstructed density of states and everything that produced it.

    Attributes
    ----------
    energies:
        Ascending energy grid in the Hamiltonian's original units.
    density:
        ``rho(omega)`` on that grid; integrates to ~1 (one state per site
        per unit trace normalization).
    moments:
        The stochastic moment estimates (:class:`~repro.kpm.MomentData`).
    rescaling:
        The affine spectral map used (for further reconstructions).
    config:
        The :class:`~repro.kpm.KPMConfig` of the run.
    timing:
        Backend timing report (modeled + wall seconds).
    """

    energies: np.ndarray
    density: np.ndarray
    moments: MomentData
    rescaling: Rescaling
    config: KPMConfig
    timing: TimingReport

    # ------------------------------------------------------------------
    def integrate(self) -> float:
        """Trapezoidal integral of the density over the energy grid.

        Should be close to ``mu_0`` (~1); deviations measure stochastic
        plus truncation error.
        """
        return float(np.trapezoid(self.density, self.energies))

    def evaluate(self, omega) -> np.ndarray:
        """Evaluate the damped KPM series at arbitrary original energies.

        Energies outside the rescaled interval raise — they are outside
        the approximation's domain.
        """
        x = self.rescaling.to_scaled(np.asarray(omega, dtype=np.float64))
        damped = apply_kernel_damping(self.moments.mu, self.config.kernel)
        return (
            evaluate_series_at(damped, x) * self.rescaling.density_jacobian
        )

    def mean_energy(self) -> float:
        """First moment of the DoS, ``integral omega rho(omega) domega``.

        For trace-normalized moments this equals ``Tr[H]/D`` up to
        stochastic and kernel error.
        """
        return float(np.trapezoid(self.energies * self.density, self.energies))

    def energy_resolution(self) -> float:
        """Jackson-kernel energy resolution ``~ pi * a / N`` in original units."""
        return float(np.pi * self.rescaling.scale / self.config.num_moments)


def validate_spectral_operator(hamiltonian):
    """Coerce ``hamiltonian`` to the operator protocol; require it finite and symmetric.

    The shared admission check of :func:`compute_dos` and the
    :mod:`repro.serve` service layer: KPM is defined for Hermitian
    matrices, and asymmetry is rejected early because it produces
    silently wrong spectra instead of crashing.  An operator with a zero
    dimension has no spectrum to bound, and a NaN or infinite entry, or
    a row sum that overflows, cannot be rescaled into ``[-1, 1]``; both
    are rejected first.
    """
    op = as_operator(hamiltonian)
    if 0 in op.shape:
        raise ValidationError(
            f"hamiltonian must not be empty, got shape {tuple(op.shape)}"
        )
    # Tolerance must scale with the overall matrix magnitude (an
    # O(nnz) infinity-norm bound: |diag| + off-diagonal row sums).  The
    # paper's hopping Hamiltonians have a zero diagonal, so a
    # diagonal-only scale collapses to an absolute 1e-12 and spuriously
    # rejects symmetric operators whose entries carry roundoff-level
    # asymmetry.  Every stored entry enters this bound, so it is finite
    # exactly when the operator is (and its row sums do not overflow).
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = float(
            np.max(np.abs(op.diagonal()) + op.offdiag_abs_row_sums(), initial=0.0)
        )
    if not np.isfinite(magnitude):
        raise ValidationError(
            "hamiltonian must be finite; its Gerschgorin bound "
            f"(|diagonal| + off-diagonal row sums) is {magnitude}"
        )
    if not op.is_symmetric(tolerance=1e-12 * max(1.0, magnitude)):
        raise ValidationError(
            "hamiltonian must be symmetric; KPM spectral expansions assume a "
            "Hermitian operator"
        )
    return op


def compute_dos(
    hamiltonian,
    config: KPMConfig | None = None,
    *,
    backend="numpy",
) -> DoSResult:
    """Compute the density of states of ``hamiltonian`` with the KPM.

    Parameters
    ----------
    hamiltonian:
        The (unscaled) Hamiltonian: ``ndarray``, CSR/COO matrix, or dense
        operator.  Must be symmetric — KPM is defined for Hermitian
        matrices; asymmetry is rejected early because it produces
        silently wrong spectra.
    config:
        KPM parameters; defaults to ``KPMConfig()``.
    backend:
        Execution backend name (see :func:`repro.kpm.available_backends`)
        or a ready :class:`~repro.kpm.engines.MomentEngine` instance,
        e.g. ``GpuKPM(GTX_580)``.

    Returns
    -------
    DoSResult
    """
    config = KPMConfig() if config is None else config
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    op = validate_spectral_operator(hamiltonian)
    engine = get_engine(backend)
    tracer = current_tracer()
    with tracer.span(
        "kpm.compute_dos",
        category="pipeline",
        backend=getattr(engine, "name", str(backend)),
        dimension=op.shape[0],
        num_moments=config.num_moments,
        total_vectors=config.total_vectors,
    ):
        with tracer.span("kpm.rescale", category="pipeline"):
            scaled, rescaling = rescale_operator(
                op, method=config.bounds_method, epsilon=config.epsilon
            )
        with tracer.span("kpm.moments", category="pipeline") as moments_span:
            clock_mark = getattr(tracer, "clock", 0.0)
            moment_data, timing = engine.compute_moments(scaled, config)
            moments_span.set(backend=timing.backend)
            if (
                timing.modeled_seconds is not None
                and getattr(tracer, "clock", 0.0) == clock_mark
            ):
                # Engines without their own instrumentation (e.g. the
                # cost-model backend) still contribute their modeled
                # total to the trace clock.
                tracer.advance(timing.modeled_seconds)
        with tracer.span("kpm.reconstruct", category="pipeline"):
            energies, density = dos_from_moments(
                moment_data,
                rescaling,
                kernel=config.kernel,
                num_points=config.num_energy_points,
            )
    return DoSResult(
        energies=energies,
        density=density,
        moments=moment_data,
        rescaling=rescaling,
        config=config,
        timing=timing,
    )
