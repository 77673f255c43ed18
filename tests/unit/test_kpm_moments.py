"""Unit tests for repro.kpm.moments."""

import numpy as np
import pytest

from repro.errors import ShapeError, SpectrumError, ValidationError
from repro.kpm import (
    KPMConfig,
    MomentData,
    exact_moments,
    moments_block,
    moments_single_vector,
    rescale_operator,
    stochastic_moments,
)
from repro.lattice import chain, cubic, tight_binding_hamiltonian


@pytest.fixture
def scaled_chain():
    h = tight_binding_hamiltonian(chain(32), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


def chebyshev_reference(operator, r0, n):
    """O(N D^2) direct reference via eigendecomposition."""
    dense = operator.to_dense()
    eigenvalues, vectors = np.linalg.eigh(dense)
    coeffs = vectors.T @ r0
    return np.array(
        [np.sum(coeffs**2 * np.cos(k * np.arccos(np.clip(eigenvalues, -1, 1)))) for k in range(n)]
    )


class TestSingleVector:
    def test_matches_eigen_reference(self, scaled_chain, rng):
        r0 = rng.standard_normal(32)
        mu = moments_single_vector(scaled_chain, r0, 12)
        np.testing.assert_allclose(mu, chebyshev_reference(scaled_chain, r0, 12), atol=1e-10)

    def test_mu0_is_norm_squared(self, scaled_chain, rng):
        r0 = rng.standard_normal(32)
        mu = moments_single_vector(scaled_chain, r0, 3)
        assert mu[0] == pytest.approx(r0 @ r0)

    def test_single_moment(self, scaled_chain, rng):
        r0 = rng.standard_normal(32)
        assert moments_single_vector(scaled_chain, r0, 1).shape == (1,)

    def test_doubling_matches_plain(self, scaled_chain, rng):
        r0 = rng.standard_normal(32)
        plain = moments_single_vector(scaled_chain, r0, 17)
        doubled = moments_single_vector(scaled_chain, r0, 17, use_doubling=True)
        np.testing.assert_allclose(doubled, plain, atol=1e-10)

    def test_doubling_even_count(self, scaled_chain, rng):
        r0 = rng.standard_normal(32)
        plain = moments_single_vector(scaled_chain, r0, 16)
        doubled = moments_single_vector(scaled_chain, r0, 16, use_doubling=True)
        np.testing.assert_allclose(doubled, plain, atol=1e-10)

    def test_wrong_vector_length(self, scaled_chain):
        with pytest.raises(ShapeError):
            moments_single_vector(scaled_chain, np.ones(5), 4)

    def test_unscaled_operator_diverges(self):
        h = tight_binding_hamiltonian(chain(32), format="csr")  # spectrum [-2, 2]
        with pytest.raises(SpectrumError, match="rescale"):
            moments_single_vector(h, np.ones(32), 200)


class TestBlock:
    def test_matches_single(self, scaled_chain, rng):
        block = rng.standard_normal((32, 4))
        mu_block = moments_block(scaled_chain, block, 10)
        for k in range(4):
            np.testing.assert_allclose(
                mu_block[:, k],
                moments_single_vector(scaled_chain, block[:, k], 10),
                atol=1e-10,
            )

    def test_doubling_matches(self, scaled_chain, rng):
        block = rng.standard_normal((32, 3))
        plain = moments_block(scaled_chain, block, 9)
        doubled = moments_block(scaled_chain, block, 9, use_doubling=True)
        np.testing.assert_allclose(doubled, plain, atol=1e-10)

    def test_shape_check(self, scaled_chain):
        with pytest.raises(ShapeError):
            moments_block(scaled_chain, np.ones(32), 4)

    def test_divergence_detected(self):
        h = tight_binding_hamiltonian(chain(32), format="csr")
        with pytest.raises(SpectrumError):
            moments_block(h, np.ones((32, 2)), 200)

    @pytest.mark.parametrize("use_doubling", [False, True])
    def test_empty_block_gives_empty_moments(self, scaled_chain, use_doubling):
        mu = moments_block(
            scaled_chain, np.empty((32, 0)), 6, use_doubling=use_doubling
        )
        assert mu.shape == (6, 0)


class TestStochastic:
    def test_mu0_exactly_one_rademacher(self, scaled_chain):
        config = KPMConfig(num_moments=4, num_random_vectors=8, num_realizations=2)
        data = stochastic_moments(scaled_chain, config)
        assert data.mu[0] == pytest.approx(1.0)

    def test_converges_to_exact(self, scaled_chain):
        config = KPMConfig(num_moments=16, num_random_vectors=64, num_realizations=4, seed=0)
        data = stochastic_moments(scaled_chain, config)
        exact = exact_moments(scaled_chain, 16)
        np.testing.assert_allclose(data.mu, exact, atol=0.05)

    def test_per_realization_shape(self, scaled_chain, small_config):
        data = stochastic_moments(scaled_chain, small_config)
        assert data.per_realization.shape == (2, 32)
        assert data.num_realizations == 2
        assert data.num_moments == 32

    def test_grand_mean_is_mean_of_realizations(self, scaled_chain, small_config):
        data = stochastic_moments(scaled_chain, small_config)
        np.testing.assert_allclose(data.mu, data.per_realization.mean(axis=0))

    def test_keep_per_vector(self, scaled_chain, small_config):
        data, per_vector = stochastic_moments(
            scaled_chain, small_config, keep_per_vector=True
        )
        assert per_vector.shape == (2, 8, 32)
        np.testing.assert_allclose(per_vector.mean(axis=1), data.per_realization)

    def test_seed_determinism(self, scaled_chain, small_config):
        a = stochastic_moments(scaled_chain, small_config)
        b = stochastic_moments(scaled_chain, small_config)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_different_seeds_differ(self, scaled_chain, small_config):
        a = stochastic_moments(scaled_chain, small_config)
        b = stochastic_moments(scaled_chain, small_config.with_updates(seed=99))
        assert not np.array_equal(a.mu, b.mu)

    def test_requires_config(self, scaled_chain):
        with pytest.raises(ValidationError):
            stochastic_moments(scaled_chain, {"num_moments": 8})

    def test_standard_error_zero_single_realization(self, scaled_chain):
        config = KPMConfig(num_moments=8, num_random_vectors=4, num_realizations=1)
        data = stochastic_moments(scaled_chain, config)
        np.testing.assert_array_equal(data.standard_error(), np.zeros(8))

    def test_standard_error_positive(self, scaled_chain):
        config = KPMConfig(num_moments=8, num_random_vectors=4, num_realizations=4)
        data = stochastic_moments(scaled_chain, config)
        assert np.any(data.standard_error() > 0)


class TestExactMoments:
    def test_matches_eigendecomposition(self):
        h = tight_binding_hamiltonian(cubic(3), format="dense")
        scaled, rescaling = rescale_operator(h)
        mu = exact_moments(scaled, 10)
        eigs = np.linalg.eigvalsh(h.to_dense())
        x = rescaling.to_scaled(eigs)
        reference = np.array(
            [np.mean(np.cos(k * np.arccos(x))) for k in range(10)]
        )
        np.testing.assert_allclose(mu, reference, atol=1e-12)

    def test_mu0_exactly_one(self):
        h = tight_binding_hamiltonian(chain(16), format="csr")
        scaled, _ = rescale_operator(h)
        assert exact_moments(scaled, 1)[0] == pytest.approx(1.0)

    def test_chunking_invariant(self):
        h = tight_binding_hamiltonian(chain(20), format="csr")
        scaled, _ = rescale_operator(h)
        np.testing.assert_allclose(
            exact_moments(scaled, 6, chunk_size=3),
            exact_moments(scaled, 6, chunk_size=64),
            atol=1e-12,
        )

    def test_bounded_peak_allocation(self):
        # Regression: the basis block used to be sliced out of a full
        # np.eye(D) — an O(D^2) allocation that defeated chunking.  Peak
        # traced memory must stay far below the dense identity.
        import tracemalloc

        dim = 1024
        h = tight_binding_hamiltonian(chain(dim), format="csr")
        scaled, _ = rescale_operator(h)
        dense_identity_bytes = dim * dim * 8
        tracemalloc.start()
        try:
            exact_moments(scaled, 4, chunk_size=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_identity_bytes // 4


class TestDivergenceChecks:
    """Every moment order must be checked, on every recursion path.

    Regression: the doubling paths skipped all odd orders and mu_1 was
    never checked anywhere, so operators whose divergence shows first in
    an unchecked order sailed through.
    """

    # Spectrum {10, 0.5, -0.5, 0.3} with start vector e0: the order-2
    # doubled moment (199) stays under the divergence threshold while
    # order 3 (3970) trips it — only the odd-order check can catch this.
    _DIAG = (10.0, 0.5, -0.5, 0.3)

    def test_doubling_checks_odd_orders_single(self):
        op = np.diag(self._DIAG)
        r0 = np.array([1.0, 0.0, 0.0, 0.0])
        moments_single_vector(op, r0, 3, use_doubling=True)  # order 2 passes
        with pytest.raises(SpectrumError, match="order 3 "):
            moments_single_vector(op, r0, 4, use_doubling=True)

    def test_doubling_checks_odd_orders_block(self):
        op = np.diag(self._DIAG)
        block = np.zeros((4, 2))
        block[0, 0] = 1.0
        block[1, 1] = 1.0
        moments_block(op, block, 3, use_doubling=True)
        with pytest.raises(SpectrumError, match="order 3 "):
            moments_block(op, block, 4, use_doubling=True)

    def test_first_moment_checked_single(self):
        op = np.diag([2000.0, 0.0])
        with pytest.raises(SpectrumError, match="order 1 "):
            moments_single_vector(op, np.array([1.0, 0.0]), 2)

    def test_first_moment_checked_block(self):
        op = np.diag([2000.0, 0.0])
        block = np.array([[1.0], [0.0]])
        with pytest.raises(SpectrumError, match="order 1 "):
            moments_block(op, block, 2)


class TestMomentData:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            MomentData(
                mu=np.ones(4),
                per_realization=np.ones((2, 5)),
                dimension=10,
                num_vectors=2,
            )

    def test_prefix_slices_bitwise(self):
        data = MomentData(
            mu=np.arange(8.0),
            per_realization=np.arange(16.0).reshape(2, 8),
            dimension=10,
            num_vectors=2,
        )
        short = data.prefix(5)
        assert np.array_equal(short.mu, data.mu[:5])
        assert np.array_equal(short.per_realization, data.per_realization[:, :5])
        assert short.dimension == data.dimension
        assert short.num_vectors == data.num_vectors
        assert data.prefix(8) is data

    def test_prefix_rejects_longer(self):
        data = MomentData(
            mu=np.ones(4), per_realization=np.ones((1, 4)), dimension=4, num_vectors=1
        )
        with pytest.raises(ValidationError, match="exceeds"):
            data.prefix(5)


class TestResumable:
    """Checkpointed resume must be bit-identical to cold runs."""

    @pytest.mark.parametrize("use_doubling", [False, True])
    @pytest.mark.parametrize("base", [1, 2, 3, 8])
    def test_single_vector_roundtrip(self, scaled_chain, base, use_doubling):
        from repro.kpm.moments import extend_recursion, moments_resumable

        rng = np.random.default_rng(0)
        r0 = rng.standard_normal(32)
        cold = moments_single_vector(
            scaled_chain, r0, base, use_doubling=use_doubling
        )
        warm, checkpoint = moments_resumable(
            scaled_chain, r0, base, use_doubling=use_doubling
        )
        assert np.array_equal(cold, warm)
        for target in (base + 1, base + 5, 2 * base + 3):
            segment, _ = extend_recursion(
                scaled_chain, checkpoint, target
            )
            full = np.concatenate([warm, segment])
            reference = moments_single_vector(
                scaled_chain, r0, target, use_doubling=use_doubling
            )
            assert np.array_equal(full, reference)

    @pytest.mark.parametrize("use_doubling", [False, True])
    def test_block_chained_extension(self, scaled_chain, use_doubling):
        from repro.kpm.moments import extend_recursion, moments_resumable

        rng = np.random.default_rng(1)
        block = rng.standard_normal((32, 3))
        warm, checkpoint = moments_resumable(
            scaled_chain, block, 6, use_doubling=use_doubling
        )
        seg1, checkpoint = extend_recursion(scaled_chain, checkpoint, 9)
        seg2, checkpoint = extend_recursion(scaled_chain, checkpoint, 21)
        full = np.vstack([warm, seg1, seg2])
        reference = moments_block(scaled_chain, block, 21, use_doubling=use_doubling)
        assert np.array_equal(full, reference)

    @pytest.mark.parametrize("layout", ["vector", "fortran-block"])
    def test_state_keeps_its_start_rows(self, scaled_chain, layout):
        # The caller reusing its start array leaves the state's run intact.
        from repro.kpm.moments import extend_recursion, moments_resumable

        rng = np.random.default_rng(3)
        start = rng.standard_normal(32)
        if layout == "fortran-block":
            start = np.asfortranarray(rng.standard_normal((32, 2)))
        cold = moments_resumable(scaled_chain, start.copy(), 12)[0]
        _, state = moments_resumable(scaled_chain, start, 7)
        start[...] = 5.0
        segment, _ = extend_recursion(scaled_chain, state, 12)
        assert np.array_equal(segment, cold[7:])

    def test_extend_rejects_non_increasing(self, scaled_chain):
        from repro.kpm.moments import extend_recursion, moments_resumable

        rng = np.random.default_rng(2)
        r0 = rng.standard_normal(32)
        _, checkpoint = moments_resumable(scaled_chain, r0, 8)
        with pytest.raises(ValidationError):
            extend_recursion(scaled_chain, checkpoint, 8)

    def test_stochastic_extension_matches_cold(self, scaled_chain):
        from repro.kpm.moments import (
            extend_stochastic_moments,
            stochastic_moments_resumable,
        )

        config = KPMConfig(
            num_moments=8, num_random_vectors=4, num_realizations=3, seed=5
        )
        cold = stochastic_moments(scaled_chain, config)
        warm, checkpoint = stochastic_moments_resumable(scaled_chain, config)
        assert np.array_equal(cold.mu, warm.mu)
        assert np.array_equal(cold.per_realization, warm.per_realization)
        bigger = config.with_updates(num_moments=19)
        extended, _ = extend_stochastic_moments(
            scaled_chain, bigger, warm, checkpoint
        )
        reference = stochastic_moments(scaled_chain, bigger)
        assert np.array_equal(extended.mu, reference.mu)
        assert np.array_equal(extended.per_realization, reference.per_realization)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"num_random_vectors": 2}, "num_random_vectors"),
            ({"num_realizations": 2}, "num_realizations"),
            ({"vector_kind": "gaussian"}, "vector_kind"),
            ({"seed": 6}, "seed"),
            ({"use_doubling": True}, "use_doubling"),
            ({"precision": "single"}, "precision"),
            # Same R * S = 12 vectors, regrouped.
            ({"num_random_vectors": 6, "num_realizations": 2}, "num_random_vectors"),
        ],
    )
    def test_stochastic_extension_rejects_changed_run(
        self, scaled_chain, changes, field
    ):
        from repro.kpm.moments import (
            extend_stochastic_moments,
            stochastic_moments_resumable,
        )

        config = KPMConfig(
            num_moments=8, num_random_vectors=4, num_realizations=3, seed=5
        )
        warm, checkpoint = stochastic_moments_resumable(scaled_chain, config)
        changed = config.with_updates(num_moments=12, **changes)
        with pytest.raises(ValidationError, match=field):
            extend_stochastic_moments(scaled_chain, changed, warm, checkpoint)

    def test_stochastic_extension_normalizes_seed(self, scaled_chain):
        from repro.kpm.moments import (
            extend_stochastic_moments,
            stochastic_moments_resumable,
        )

        config = KPMConfig(num_moments=8, num_random_vectors=2, seed=0)
        warm, checkpoint = stochastic_moments_resumable(scaled_chain, config)
        # seed=None is the default stream family, i.e. seed 0: same run.
        bigger = config.with_updates(num_moments=13, seed=None)
        extended, _ = extend_stochastic_moments(
            scaled_chain, bigger, warm, checkpoint
        )
        reference = stochastic_moments(scaled_chain, bigger)
        assert np.array_equal(extended.per_realization, reference.per_realization)
