"""Unit tests for repro.kpm.rescale."""

import numpy as np
import pytest

from repro.errors import SpectrumError, ValidationError
from repro.kpm import (
    Rescaling,
    SpectralBounds,
    exact_bounds,
    gerschgorin_bounds,
    lanczos_bounds,
    rescale_operator,
)
from repro.lattice import chain, cubic, tight_binding_hamiltonian


class TestSpectralBounds:
    def test_center_half_width(self):
        bounds = SpectralBounds(-2.0, 6.0)
        assert bounds.center == 2.0
        assert bounds.half_width == 4.0

    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            SpectralBounds(1.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            SpectralBounds(-np.inf, 0.0)


class TestGerschgorin:
    def test_contains_true_spectrum(self):
        h = tight_binding_hamiltonian(cubic(4), format="dense")
        eigs = np.linalg.eigvalsh(h.to_dense())
        bounds = gerschgorin_bounds(h)
        assert bounds.lower <= eigs[0]
        assert bounds.upper >= eigs[-1]

    def test_cubic_lattice_bounds_exact_value(self):
        # 6 off-diagonal -1s per row, zero diagonal -> [-6, 6].
        h = tight_binding_hamiltonian(cubic(4), format="csr")
        bounds = gerschgorin_bounds(h)
        assert bounds.lower == -6.0
        assert bounds.upper == 6.0

    def test_diagonal_matrix(self):
        bounds = gerschgorin_bounds(np.diag([1.0, -3.0, 5.0]))
        assert bounds.lower == -3.0
        assert bounds.upper == 5.0


class TestLanczosBounds:
    def test_close_to_exact_for_chain(self):
        h = tight_binding_hamiltonian(chain(128), format="csr")
        bounds = lanczos_bounds(h, iterations=40, seed=0)
        exact = exact_bounds(h)
        assert bounds.lower <= exact.lower + 1e-6
        assert bounds.upper >= exact.upper - 1e-6
        # and much tighter than a 100% over-estimate
        assert bounds.upper - bounds.lower < 1.2 * (exact.upper - exact.lower)

    def test_tighter_than_gerschgorin_for_disorder(self):
        from repro.lattice import anderson_onsite_energies

        lattice = chain(128)
        eps = anderson_onsite_energies(lattice, 4.0, seed=1)
        h = tight_binding_hamiltonian(lattice, onsite=eps, format="csr")
        lz = lanczos_bounds(h, iterations=60, seed=0)
        gg = gerschgorin_bounds(h)
        assert (lz.upper - lz.lower) < (gg.upper - gg.lower)


class TestExactBounds:
    def test_matches_eigvalsh(self):
        h = tight_binding_hamiltonian(chain(32), format="dense")
        eigs = np.linalg.eigvalsh(h.to_dense())
        bounds = exact_bounds(h)
        assert bounds.lower == pytest.approx(eigs[0])
        assert bounds.upper == pytest.approx(eigs[-1])


class TestRescaling:
    def test_roundtrip(self):
        rescaling = Rescaling(scale=3.0, shift=-1.0)
        omega = np.array([-4.0, -1.0, 2.0])
        np.testing.assert_allclose(
            rescaling.to_original(rescaling.to_scaled(omega)), omega
        )

    def test_density_jacobian(self):
        assert Rescaling(scale=4.0, shift=0.0).density_jacobian == 0.25

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            Rescaling(scale=0.0, shift=0.0)

    def test_rejects_scale_whose_reciprocal_overflows(self):
        with pytest.raises(ValidationError, match="reciprocal"):
            Rescaling(scale=5e-310, shift=0.0)
        # The smallest normal scale still has a finite Jacobian.
        tiny = Rescaling(scale=np.finfo(np.float64).tiny, shift=0.0)
        assert np.isfinite(tiny.density_jacobian)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_operator_is_not_rescaled(self):
        h = tight_binding_hamiltonian(cubic(3), format="dense").to_dense() * 1e-310
        with pytest.raises(ValidationError, match="reciprocal"):
            rescale_operator(h)

    def test_apply_moves_spectrum_inside(self):
        h = tight_binding_hamiltonian(cubic(3), format="dense")
        scaled, rescaling = rescale_operator(h, epsilon=0.05)
        eigs = np.linalg.eigvalsh(scaled.to_dense())
        assert eigs[0] > -1.0
        assert eigs[-1] < 1.0

    def test_epsilon_margin_exact(self):
        h = np.diag([-1.0, 1.0])
        scaled, _ = rescale_operator(h, method="exact", epsilon=0.25)
        eigs = np.linalg.eigvalsh(scaled.to_dense())
        np.testing.assert_allclose(eigs, [-0.8, 0.8])

    def test_explicit_bounds_skip_estimation(self):
        h = np.diag([0.0, 1.0])
        _, rescaling = rescale_operator(h, bounds=SpectralBounds(-10.0, 10.0))
        assert rescaling.shift == 0.0
        assert rescaling.scale == pytest.approx(10.0 * 1.01)

    def test_identity_matrix_rejected(self):
        with pytest.raises(SpectrumError):
            rescale_operator(np.eye(4))

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            rescale_operator(np.diag([0.0, 1.0]), method="guess")

    def test_csr_stays_csr(self):
        from repro.sparse import CSRMatrix

        h = tight_binding_hamiltonian(chain(16), format="csr")
        scaled, _ = rescale_operator(h)
        assert isinstance(scaled, CSRMatrix)

    def test_scaled_eigs_match_transformed(self):
        h = tight_binding_hamiltonian(chain(16), format="dense")
        scaled, rescaling = rescale_operator(h)
        eigs = np.linalg.eigvalsh(h.to_dense())
        scaled_eigs = np.linalg.eigvalsh(scaled.to_dense())
        np.testing.assert_allclose(scaled_eigs, rescaling.to_scaled(eigs), atol=1e-12)


class TestExactBoundsUnderflowRegression:
    """eigvalsh misreports extremal eigenvalues when an entry's square
    underflows; exact_bounds must flush such spectrally-irrelevant
    couplings (hypothesis-found counterexample)."""

    def test_tiny_coupling_does_not_narrow_bounds(self):
        matrix = np.zeros((5, 5))
        matrix[0, 1] = matrix[1, 0] = 1.16535886e-161
        matrix[1, 3] = matrix[3, 1] = 2.4375
        matrix[2, 2] = -3.0
        bounds = exact_bounds(matrix)
        assert bounds.upper == pytest.approx(2.4375, abs=1e-12)
        assert bounds.lower == pytest.approx(-3.0, abs=1e-12)

    def test_rescaled_spectrum_stays_inside(self):
        matrix = np.zeros((5, 5))
        matrix[0, 1] = matrix[1, 0] = 1.16535886e-161
        matrix[1, 3] = matrix[3, 1] = 2.4375
        matrix[2, 2] = -3.0
        scaled, _ = rescale_operator(matrix, method="exact", epsilon=0.02)
        eigs = np.linalg.eigvalsh(scaled.to_dense())
        assert eigs[0] >= -1.0
        assert eigs[-1] <= 1.0
