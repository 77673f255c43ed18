"""Unit tests for repro.kpm.dos and repro.kpm.green."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kpm import KPMConfig, compute_dos, greens_function, local_dos
from repro.kpm.dos import validate_spectral_operator
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sparse import DenseOperator


class TestComputeDos:
    def test_returns_result_fields(self, chain_csr, small_config):
        result = compute_dos(chain_csr, small_config)
        assert result.energies.shape == (small_config.num_energy_points,)
        assert result.density.shape == result.energies.shape
        assert result.config is small_config
        assert result.timing.backend == "numpy"

    def test_default_config(self, chain_csr):
        result = compute_dos(chain_csr)
        assert result.config.num_moments == 256

    def test_integral_near_one(self, chain_csr):
        config = KPMConfig(num_moments=64, num_random_vectors=16, seed=1)
        result = compute_dos(chain_csr, config)
        assert result.integrate() == pytest.approx(1.0, abs=0.02)

    def test_rejects_asymmetric(self, small_config):
        with pytest.raises(ValidationError, match="symmetric"):
            compute_dos(np.array([[0.0, 1.0], [0.0, 0.0]]), small_config)

    def test_rejects_bad_config(self, chain_csr):
        with pytest.raises(ValidationError):
            compute_dos(chain_csr, config={"num_moments": 8})

    def test_unknown_backend(self, chain_csr, small_config):
        with pytest.raises(ValidationError, match="unknown backend"):
            compute_dos(chain_csr, small_config, backend="fpga")

    def test_mean_energy_matches_trace(self, cube4_csr):
        # Tr[H]/D = 0 for the paper's zero-diagonal matrix.
        config = KPMConfig(num_moments=64, num_random_vectors=32, seed=2)
        result = compute_dos(cube4_csr, config)
        assert abs(result.mean_energy()) < 0.1

    def test_evaluate_matches_grid(self, chain_csr, small_config):
        result = compute_dos(chain_csr, small_config)
        inner = slice(100, -100)
        np.testing.assert_allclose(
            result.evaluate(result.energies[inner]),
            result.density[inner],
            atol=1e-10,
        )

    def test_energy_resolution_formula(self, chain_csr):
        config = KPMConfig(num_moments=100, num_random_vectors=2)
        result = compute_dos(chain_csr, config)
        expected = np.pi * result.rescaling.scale / 100
        assert result.energy_resolution() == pytest.approx(expected)

    def test_density_nonnegative_with_jackson(self, cube4_csr):
        config = KPMConfig(num_moments=48, num_random_vectors=16, kernel="jackson", seed=0)
        result = compute_dos(cube4_csr, config)
        assert result.density.min() >= -1e-10

    def test_bounds_method_lanczos(self, chain_csr):
        config = KPMConfig(
            num_moments=32, num_random_vectors=8, bounds_method="lanczos", seed=0
        )
        result = compute_dos(chain_csr, config)
        # For the clean chain Gerschgorin is already tight (spectrum is
        # exactly [-2, 2]); Lanczos with its pad must land close by.
        assert 2.0 <= result.rescaling.scale <= 2.12


class TestNonFiniteOperator:
    """NaN or inf entries are rejected as such, not as asymmetry."""

    @staticmethod
    def _inputs(bad):
        dense = tight_binding_hamiltonian(chain(16), format="dense").to_dense().copy()
        csr = tight_binding_hamiltonian(chain(16), format="csr")
        csr.data[0] = bad  # mutated in place, past the constructor's check
        dense[3, 4] = dense[4, 3] = bad
        return {
            "ndarray": dense,
            "dense-operator": DenseOperator(dense),
            "csr-mutated": csr,
        }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["ndarray", "dense-operator", "csr-mutated"])
    def test_rejected_as_non_finite(self, bad, kind):
        with pytest.raises(ValidationError, match="finite"):
            validate_spectral_operator(self._inputs(bad)[kind])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_sum_rejected(self):
        h = TestSymmetryTolerance._hopping_chain(4, 1e308)
        with pytest.raises(ValidationError, match="finite"):
            validate_spectral_operator(h)


class TestEmptyOperator:
    """A zero dimension is a typed rejection, not NumPy's reduction error."""

    @pytest.mark.parametrize(
        "empty", [np.zeros((0, 0)), DenseOperator(np.zeros((0, 0)))]
    )
    def test_rejected_as_empty(self, empty):
        with pytest.raises(ValidationError, match="empty"):
            validate_spectral_operator(empty)
        with pytest.raises(ValidationError, match="empty"):
            compute_dos(empty, KPMConfig(num_moments=8, num_random_vectors=2))


class TestSymmetryTolerance:
    """Regression: the symmetry tolerance must scale with the matrix.

    It used to scale with the *diagonal* magnitude only; the paper's
    hopping Hamiltonians have a zero diagonal, so the tolerance
    collapsed to an absolute 1e-12 and roundoff-level asymmetry in
    large off-diagonal entries was spuriously rejected.
    """

    @staticmethod
    def _hopping_chain(n, t):
        h = np.zeros((n, n))
        for i in range(n - 1):
            h[i, i + 1] = h[i + 1, i] = -t
        return h

    def test_zero_diagonal_roundoff_accepted(self, small_config):
        h = self._hopping_chain(8, 1.0)
        h[2, 3] += 1e-15
        result = compute_dos(h, small_config)
        assert np.isfinite(result.density).all()

    def test_large_hopping_roundoff_accepted(self, small_config):
        # t = 1e4 with 1e-11 roundoff asymmetry: above the old absolute
        # 1e-12 cutoff, far below any genuine asymmetry at this scale.
        h = self._hopping_chain(8, 1e4)
        h[0, 1] += 1e-11
        result = compute_dos(h, small_config)
        assert np.isfinite(result.density).all()

    def test_genuine_asymmetry_still_rejected(self, small_config):
        h = self._hopping_chain(4, 1.0)
        h[0, 1] = -0.9
        with pytest.raises(ValidationError, match="symmetric"):
            compute_dos(h, small_config)

    def test_genuine_asymmetry_rejected_at_scale(self, small_config):
        h = self._hopping_chain(4, 1e4)
        h[0, 1] += 1.0
        with pytest.raises(ValidationError, match="symmetric"):
            compute_dos(h, small_config)


class TestGreensFunction:
    @pytest.fixture
    def chain_result(self):
        # 256 sites so the level spacing (~0.05 near the band center) sits
        # below the Jackson resolution at N=128 and the DoS is smooth.
        h = tight_binding_hamiltonian(chain(256), format="csr")
        config = KPMConfig(num_moments=128, num_random_vectors=32, seed=3)
        return compute_dos(h, config)

    def test_imaginary_part_is_minus_pi_rho(self, chain_result):
        energies = np.array([-1.0, 0.0, 0.5])
        g = greens_function(
            chain_result.moments, chain_result.rescaling, energies, kernel="jackson"
        )
        np.testing.assert_allclose(
            g.imag, -np.pi * chain_result.evaluate(energies), atol=1e-10
        )

    def test_chain_resolvent_analytic(self, chain_result):
        # The infinite chain's retarded Green's function inside the band
        # is G(E) = -i / sqrt(4 - E^2): purely imaginary.
        energy = 0.7
        g = greens_function(
            chain_result.moments, chain_result.rescaling, [energy], kernel="jackson"
        )
        assert abs(g.real[0]) < 0.06
        assert g.imag[0] == pytest.approx(-1.0 / np.sqrt(4 - energy**2), abs=0.05)

    def test_energy_outside_interval_rejected(self, chain_result):
        with pytest.raises(ValidationError):
            greens_function(chain_result.moments, chain_result.rescaling, [100.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_energy_rejected(self, chain_result):
        with pytest.raises(ValidationError, match="strictly inside"):
            greens_function(
                chain_result.moments, chain_result.rescaling, [0.5, np.nan]
            )

    def test_requires_rescaling(self, chain_result):
        with pytest.raises(ValidationError):
            greens_function(chain_result.moments, None, [0.0])


class TestLocalDos:
    def test_translational_invariance(self, chain_csr):
        config = KPMConfig(num_moments=64)
        _, ldos_0 = local_dos(chain_csr, 0, config)
        _, ldos_5 = local_dos(chain_csr, 5, config)
        np.testing.assert_allclose(ldos_0, ldos_5, atol=1e-10)

    def test_integral_one(self, cube4_csr):
        config = KPMConfig(num_moments=64)
        energies, ldos = local_dos(cube4_csr, 3, config)
        assert np.trapezoid(ldos, energies) == pytest.approx(1.0, abs=0.02)

    def test_site_out_of_range(self, chain_csr):
        with pytest.raises(ValidationError):
            local_dos(chain_csr, 10_000)

    def test_average_ldos_is_dos(self):
        # Mean of all local DoS equals the exact-trace DoS.
        h = tight_binding_hamiltonian(chain(8), format="dense")
        config = KPMConfig(num_moments=32, num_energy_points=256)
        total = None
        for site in range(8):
            energies, ldos = local_dos(h, site, config)
            total = ldos if total is None else total + ldos
        from repro.kpm import dos_from_moments, exact_moments, rescale_operator

        scaled, rescaling = rescale_operator(h)
        mu = exact_moments(scaled, 32)
        _, dos = dos_from_moments(mu, rescaling, num_points=256)
        np.testing.assert_allclose(total / 8, dos, atol=1e-10)
