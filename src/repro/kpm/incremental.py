"""Incrementally refinable spectral density — production workflow API.

The one-shot :func:`repro.kpm.compute_dos` asks for ``N, R, S`` up
front, but in practice nobody knows the required accuracy in advance:
one runs a cheap estimate, looks at the noise, and *adds* vectors or
moments.  :class:`SpectralDensity` supports exactly that loop (the same
workflow ``kwant.kpm.SpectralDensity`` offers) on this library's
substrate:

    sd = SpectralDensity(H, num_moments=128)
    sd.add_vectors(8)
    while sd.density_error_estimate() > 1e-3:
        sd.add_vectors(8)                    # only the new vectors run
    energies, density = sd.dos()

* ``add_vectors`` computes moments for *new* Philox streams only; the
  accumulated table grows and all previous work is reused.  The result
  is bit-identical to a one-shot run with the final vector count.
* ``add_moments`` raises the truncation order by *resuming* the
  three-term recursion from per-group checkpoints
  (:class:`~repro.kpm.moments.RecursionCheckpoint`) instead of
  replaying it from ``mu_0`` — the marginal cost is one matvec per new
  order per vector, reported honestly via ``matvecs_performed``.  The
  extension is exception-safe: every group's segment is computed before
  any state is committed, so a failing operator leaves the object
  exactly as it was.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kpm.moments import MomentData, extend_recursion, moments_resumable
from repro.kpm.moments import reduce_moment_table
from repro.kpm.random_vectors import available_vector_kinds, random_block
from repro.kpm.reconstruct import dos_from_moments
from repro.kpm.rescale import rescale_operator
from repro.sparse import as_operator
from repro.util.validation import check_choice, check_positive_int

__all__ = ["SpectralDensity", "moment_convergence_estimate"]


def moment_convergence_estimate(data: MomentData) -> float:
    """Scalar convergence proxy for a :class:`MomentData` estimate.

    With two or more realizations this is the RMS per-moment standard
    error (the same statistic :meth:`SpectralDensity.density_error_estimate`
    tracks); with a single realization there is no dispersion
    information, so the tail magnitude ``rms(mu[-N//4:])`` stands in —
    damped Chebyshev series converge when their high-order moments stop
    contributing.  Used by the serving layer's refinement loop to stop
    streaming tiers once the estimate is converged.
    """
    if not isinstance(data, MomentData):
        raise ValidationError(
            f"data must be a MomentData, got {type(data).__name__}"
        )
    if data.num_realizations >= 2:
        errors = data.standard_error()
        if not np.all(np.isfinite(errors)):
            return float("inf")
        return float(np.sqrt(np.mean(errors**2)))
    tail = data.mu[-max(1, data.num_moments // 4) :]
    return float(np.sqrt(np.mean(tail**2)))


class SpectralDensity:
    """Accumulating KPM density-of-states estimator.

    Parameters
    ----------
    hamiltonian:
        Symmetric operator (unscaled; rescaled internally once).
    num_moments:
        Initial truncation order ``N``.
    kernel:
        Damping kernel for reconstructions.
    vector_kind, seed:
        Random-vector family (all vectors live in realization 0 of the
        Philox stream family, indexed consecutively).
    bounds_method, epsilon:
        Spectral rescaling options.
    """

    def __init__(
        self,
        hamiltonian,
        *,
        num_moments: int = 128,
        kernel: str = "jackson",
        vector_kind: str = "rademacher",
        seed: int | None = 0,
        bounds_method: str = "gerschgorin",
        epsilon: float = 0.01,
    ):
        operator = as_operator(hamiltonian)
        self.scaled, self.rescaling = rescale_operator(
            operator, method=bounds_method, epsilon=epsilon
        )
        self.dimension = operator.shape[0]
        self.num_moments = check_positive_int(num_moments, "num_moments")
        self.kernel = kernel
        self.vector_kind = check_choice(
            vector_kind, "vector_kind", available_vector_kinds()
        )
        self.seed = seed
        #: Raw per-vector moments ``<r|T_n|r>``, shape (vectors, N).
        self._table = np.empty((0, self.num_moments), dtype=np.float64)
        #: One recursion checkpoint per ``add_vectors`` group, in call
        #: order; ``add_moments`` resumes each instead of replaying.
        self._checkpoints: list = []
        #: Total matrix-vector products executed so far (cost meter).
        self.matvecs_performed = 0

    # ------------------------------------------------------------------
    @property
    def num_vectors(self) -> int:
        """Random vectors accumulated so far."""
        return int(self._table.shape[0])

    def _compute_vectors(self, first: int, count: int, num_moments: int):
        block = random_block(
            self.dimension,
            count,
            self.vector_kind,
            seed=self.seed,
            realization=0,
            first_vector=first,
        )
        raw, checkpoint = moments_resumable(self.scaled, block, num_moments)
        self.matvecs_performed += max(num_moments - 1, 0) * count
        return raw.T, checkpoint

    # ------------------------------------------------------------------
    def add_vectors(self, count: int) -> "SpectralDensity":
        """Accumulate ``count`` new random vectors (previous work reused)."""
        count = check_positive_int(count, "count")
        new_rows, checkpoint = self._compute_vectors(
            self.num_vectors, count, self.num_moments
        )
        self._table = np.vstack([self._table, new_rows])
        self._checkpoints.append(checkpoint)
        return self

    def add_moments(self, extra: int) -> "SpectralDensity":
        """Raise the truncation order by ``extra`` (resumes, never replays).

        Each ``add_vectors`` group left a recursion checkpoint holding
        its last two Chebyshev vectors; extending costs one matvec per
        new order per vector instead of a full replay, and the new
        columns are bit-identical to what a fresh run at the higher
        order would have produced.

        Exception-safe: all segments are computed *before* any state is
        committed, so a failure (e.g. an operator raising mid-matvec)
        leaves ``num_moments``, the table, the checkpoints, and the
        matvec counter untouched.
        """
        extra = check_positive_int(extra, "extra")
        target = self.num_moments + extra
        # Phase 1: compute every group's extension (no mutation yet).
        segments = []
        advanced = []
        for checkpoint in self._checkpoints:
            segment, state = extend_recursion(self.scaled, checkpoint, target)
            segments.append(segment.T)  # (count, extra)
            advanced.append(state)
        # Phase 2: commit.
        if segments:
            self._table = np.hstack([self._table, np.vstack(segments)])
        else:
            self._table = np.empty((0, target), dtype=np.float64)
        self._checkpoints = advanced
        self.matvecs_performed += extra * self.num_vectors
        self.num_moments = target
        return self

    # ------------------------------------------------------------------
    def moments(self) -> MomentData:
        """Current moment estimate (each vector its own 'realization')."""
        if self.num_vectors == 0:
            raise ValidationError(
                "no vectors accumulated yet; call add_vectors() first"
            )
        return reduce_moment_table(self._table, 1, self.dimension)

    def moment_error_estimate(self) -> np.ndarray:
        """Standard error of each moment over the accumulated vectors."""
        if self.num_vectors < 2:
            return np.full(self.num_moments, np.inf, dtype=np.float64)
        per_vector = self._table / self.dimension
        return per_vector.std(axis=0, ddof=1) / np.sqrt(self.num_vectors)

    def density_error_estimate(self) -> float:
        """Scalar noise proxy: RMS moment standard error (scaled axis).

        Decays like ``1/sqrt(num_vectors)``; compare successive values to
        decide when to stop adding vectors.
        """
        errors = self.moment_error_estimate()
        if not np.all(np.isfinite(errors)):
            return float("inf")
        return float(np.sqrt(np.mean(errors**2)))

    def dos(self, num_points: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct the DoS from the current moments."""
        return dos_from_moments(
            self.moments(),
            self.rescaling,
            kernel=self.kernel,
            num_points=num_points,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpectralDensity(D={self.dimension}, N={self.num_moments}, "
            f"vectors={self.num_vectors}, matvecs={self.matvecs_performed})"
        )
