"""Spectral rescaling — paper Eq. (8)–(9).

The Chebyshev recursion requires the spectrum of ``H~`` inside
``[-1, 1]``; values outside make ``T_n(H~)`` grow like ``cosh`` and the
moments diverge.  The paper bounds the spectrum with the Gerschgorin
circle theorem and maps

    H~ = (H - alpha_plus) / alpha_minus,
    alpha_pm = (E_upper +- E_lower) / 2.

We add the standard safety margin ``epsilon`` (``alpha_minus`` is
multiplied by ``1 + epsilon``) and two alternative bound estimators:

* ``lanczos`` — a short Lanczos run gives much tighter bounds than
  Gerschgorin for lattice Hamiltonians (Gerschgorin over-estimates the
  cubic-lattice bandwidth by nothing here, but over-estimates heavily for
  disordered models), improving KPM resolution at fixed ``N``;
* ``exact`` — dense diagonalization, only for small matrices / tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SpectrumError, ValidationError
from repro.sparse import as_operator
from repro.util.validation import check_choice, check_in_range, check_positive_int

__all__ = [
    "SpectralBounds",
    "Rescaling",
    "EXACT_BOUNDS_MAX_DIM",
    "gerschgorin_bounds",
    "lanczos_bounds",
    "exact_bounds",
    "rescale_operator",
]


@dataclass(frozen=True)
class SpectralBounds:
    """An interval guaranteed (or estimated) to contain all eigenvalues."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValidationError("spectral bounds must be finite")
        if self.lower > self.upper:
            raise ValidationError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def center(self) -> float:
        """``alpha_plus`` of paper Eq. (9)."""
        return 0.5 * (self.upper + self.lower)

    @property
    def half_width(self) -> float:
        """``alpha_minus`` of paper Eq. (9) (before the epsilon margin)."""
        return 0.5 * (self.upper - self.lower)


@dataclass(frozen=True)
class Rescaling:
    """The affine map ``omega <-> x`` between original and scaled energies.

    ``x = (omega - b) / a`` with ``a = half_width * (1 + epsilon)`` and
    ``b = center``.  Densities transform with the Jacobian ``1/a``:
    ``rho(omega) = rho~(x) / a``.  A positive ``a`` so small that
    ``1/a`` overflows (a subnormal scale) is rejected: neither ``H~`` nor
    the Jacobian would be finite.
    """

    scale: float  # a
    shift: float  # b

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and np.isfinite(self.shift)):
            raise ValidationError("rescaling parameters must be finite")
        if self.scale <= 0:
            raise ValidationError(f"scale must be positive, got {self.scale}")
        if not math.isfinite(1.0 / float(self.scale)):
            raise ValidationError(
                f"scale {self.scale} is too small: its reciprocal overflows"
            )

    def to_scaled(self, omega):
        """Map original energies to ``x`` in ``[-1, 1]``."""
        return (np.asarray(omega, dtype=np.float64) - self.shift) / self.scale

    def to_original(self, x):
        """Map scaled energies back to original units."""
        return np.asarray(x, dtype=np.float64) * self.scale + self.shift

    @property
    def density_jacobian(self) -> float:
        """Factor converting a scaled-axis density to original units."""
        return 1.0 / self.scale

    def apply(self, operator):
        """Return the rescaled operator ``H~ = (H - b I) / a``."""
        op = as_operator(operator)
        return op.scale_shift(1.0 / self.scale, -self.shift / self.scale)


# ----------------------------------------------------------------------
# Bound estimators
# ----------------------------------------------------------------------
def gerschgorin_bounds(operator) -> SpectralBounds:
    """Gerschgorin circle bounds — the paper's Eq. (9) inputs.

    ``E_lower = min_i (a_ii - r_i)``, ``E_upper = max_i (a_ii + r_i)``
    with ``r_i = sum_{j != i} |a_ij|``.  Guaranteed to contain the
    spectrum for any symmetric matrix.
    """
    op = as_operator(operator)
    diag = op.diagonal()
    radii = op.offdiag_abs_row_sums()
    return SpectralBounds(float(np.min(diag - radii)), float(np.max(diag + radii)))


def lanczos_bounds(
    operator, *, iterations: int = 60, seed: int | None = 0, pad: float = 1e-2
) -> SpectralBounds:
    """Extremal-eigenvalue estimates from a short Lanczos run.

    The Ritz values of a ``k``-step Lanczos tridiagonalization converge to
    the spectrum's edges first; we pad the estimated interval by ``pad``
    times its width because Ritz values approach the true extremes from
    the inside.
    """
    from repro.ed.lanczos import lanczos_extremal_eigenvalues

    iterations = check_positive_int(iterations, "iterations")
    lo, hi = lanczos_extremal_eigenvalues(
        operator, iterations=iterations, seed=seed
    )
    width = max(hi - lo, np.finfo(np.float64).eps)
    return SpectralBounds(lo - pad * width, hi + pad * width)


#: Largest dimension ``exact_bounds`` will densify.  Dense ``eigvalsh``
#: is O(D^2) memory / O(D^3) time; beyond this the sparse estimators
#: (``gerschgorin``, ``lanczos``) are strictly better and the guard
#: keeps a stray ``bounds="exact"`` from materializing a lattice-sized
#: matrix on the hot path.
EXACT_BOUNDS_MAX_DIM = 4096


def exact_bounds(operator) -> SpectralBounds:
    """Exact extremal eigenvalues via dense diagonalization (small D only).

    Raises :class:`~repro.errors.ValidationError` for operators larger
    than :data:`EXACT_BOUNDS_MAX_DIM` — use ``gerschgorin_bounds`` or
    ``lanczos_bounds`` there instead.
    """
    op = as_operator(operator)
    if op.shape[0] > EXACT_BOUNDS_MAX_DIM:
        raise ValidationError(
            f"exact_bounds is dense O(D^3); got D={op.shape[0]} > "
            f"{EXACT_BOUNDS_MAX_DIM} — use bounds='gerschgorin' or "
            "'lanczos' for large operators"
        )
    dense = op.to_dense()
    # LAPACK's symmetric-eigensolver reduction loses accuracy when an
    # entry's square underflows (a coupling ~1e-161 next to O(1) entries
    # can shift the reported extremal eigenvalues by percents, making the
    # "exact" bounds too narrow and the rescaled spectrum escape [-1, 1]).
    # Entries that far below the matrix scale perturb eigenvalues by at
    # most their norm (Weyl), so flushing them is exact at double
    # precision and sidesteps the underflow path.
    magnitude = np.abs(dense).max()
    if magnitude > 0.0:
        dense = np.where(np.abs(dense) >= magnitude * 1e-30, dense, 0.0)
    eigenvalues = np.linalg.eigvalsh(dense)  # repro: noqa[RA009] — size-gated above
    return SpectralBounds(float(eigenvalues[0]), float(eigenvalues[-1]))


_BOUND_FUNCS = {
    "gerschgorin": gerschgorin_bounds,
    "lanczos": lanczos_bounds,
    "exact": exact_bounds,
}


def rescale_operator(
    operator,
    *,
    method: str = "gerschgorin",
    epsilon: float = 0.01,
    bounds: SpectralBounds | None = None,
):
    """Rescale ``H`` so its spectrum lies strictly inside ``[-1, 1]``.

    Parameters
    ----------
    operator:
        The Hamiltonian (any operator-protocol object or ndarray).
    method:
        Bound estimator: ``"gerschgorin"`` (paper), ``"lanczos"``, or
        ``"exact"``.  Ignored when explicit ``bounds`` are given.
    epsilon:
        Safety margin; the spectrum maps into
        ``[-1/(1+eps), 1/(1+eps)]``.
    bounds:
        Pre-computed bounds to reuse (skips estimation).

    Returns
    -------
    (scaled_operator, rescaling):
        ``H~`` in the same storage format, and the :class:`Rescaling`
        needed to map energies and densities back.

    Raises
    ------
    SpectrumError
        If the bounds collapse to a point (a multiple of the identity has
        no well-defined rescaling) — callers should handle that trivially.
    """
    epsilon = check_in_range(epsilon, "epsilon", 0.0, 1.0)
    op = as_operator(operator)
    if bounds is None:
        method = check_choice(method, "method", tuple(_BOUND_FUNCS))
        bounds = _BOUND_FUNCS[method](op)
    if bounds.half_width <= 0:
        raise SpectrumError(
            "spectral bounds have zero width; the matrix is (numerically) a "
            "multiple of the identity and KPM rescaling is undefined"
        )
    rescaling = Rescaling(scale=bounds.half_width * (1.0 + epsilon), shift=bounds.center)
    return rescaling.apply(op), rescaling
