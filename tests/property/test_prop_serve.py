"""Property tests: serve-layer responses are bit-identical to direct calls.

The service's core guarantee — coalescing and caching are pure routing,
never numerics — must hold for *any* configuration, not just the ones
the unit tests pick.  Hypothesis samples configs (moment counts, vector
counts, seeds, kernels, vector kinds) and operators, and asserts that
batch-mates and cache hits reproduce a fresh ``compute_dos`` bit for
bit on both the bit-identical backends (numpy) and the modeled GPU
pipeline (gpu-sim), whose reduction order differs from numpy's — which
is exactly why the service must never substitute one engine's moments
for another's request.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kpm import KPMConfig, compute_dos, local_dos
from repro.kpm.green import greens_function
from repro.lattice import chain, square, tight_binding_hamiltonian
from repro.serve import (
    DoSRequest,
    GreenRequest,
    LDoSRequest,
    SpectralService,
    TenantPolicy,
    check_equivalence,
    synthetic_trace,
    timed_trace,
)

OPERATORS = {
    "chain32": tight_binding_hamiltonian(chain(32)),
    "square6": tight_binding_hamiltonian(square(6)),
}


@st.composite
def kpm_configs(draw):
    return KPMConfig(
        num_moments=draw(st.sampled_from([8, 16, 32])),
        num_random_vectors=draw(st.integers(1, 6)),
        num_realizations=draw(st.integers(1, 2)),
        kernel=draw(st.sampled_from(["jackson", "lorentz", "dirichlet"])),
        vector_kind=draw(st.sampled_from(["rademacher", "gaussian"])),
        seed=draw(st.integers(0, 2**31)),
        num_energy_points=draw(st.sampled_from([64, 128])),
    )


class TestServeBitIdentity:
    @given(
        config=kpm_configs(),
        operator=st.sampled_from(sorted(OPERATORS)),
        backend=st.sampled_from(["numpy", "gpu-sim"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_coalesced_and_cached_match_compute_dos(
        self, config, operator, backend
    ):
        hamiltonian = OPERATORS[operator]
        direct = compute_dos(hamiltonian, config, backend=backend)

        service = SpectralService(backends=(backend,))
        batch = service.serve(
            [DoSRequest(hamiltonian, config, tag=str(i)) for i in range(3)]
        )
        [replay] = service.serve([DoSRequest(hamiltonian, config)])

        assert [r.source for r in batch] == ["computed", "coalesced", "coalesced"]
        assert replay.source == "cache"
        for response in [*batch, replay]:
            assert np.array_equal(response.values, direct.density)
            assert np.array_equal(response.energies, direct.energies)
            assert np.array_equal(response.moments.mu, direct.moments.mu)
            assert np.array_equal(
                response.moments.per_realization, direct.moments.per_realization
            )

    @given(
        config=kpm_configs(),
        operator=st.sampled_from(sorted(OPERATORS)),
        site=st.integers(0, 31),
    )
    @settings(max_examples=15, deadline=None)
    def test_ldos_matches_local_dos(self, config, operator, site):
        hamiltonian = OPERATORS[operator]
        energies, density = local_dos(hamiltonian, site, config)

        service = SpectralService(backends=("numpy",))
        responses = service.serve(
            [LDoSRequest(hamiltonian, site=site, config=config) for _ in range(2)]
        )
        for response in responses:
            assert np.array_equal(response.values, density)
            assert np.array_equal(response.energies, energies)

class TestPrefixClosedServing:
    """Tentpole property: a cached high-order entry serves any lower
    order bit-identically to a cold one-shot run at that order, and an
    in-place extension is bit-identical to a cold run at the higher
    order — for random ``(N_small < N_large)`` pairs, both kernels,
    both backends, and both trace and LDoS request kinds."""

    @given(
        config=kpm_configs(),
        operator=st.sampled_from(sorted(OPERATORS)),
        backend=st.sampled_from(["numpy", "gpu-sim"]),
        orders=st.tuples(st.integers(2, 48), st.integers(2, 48)).filter(
            lambda pair: pair[0] != pair[1]
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_prefix_hit_matches_cold_one_shot(
        self, config, operator, backend, orders
    ):
        n_small, n_large = sorted(orders)
        hamiltonian = OPERATORS[operator]
        small = config.with_updates(num_moments=n_small)

        service = SpectralService(backends=(backend,))
        service.serve(
            [DoSRequest(hamiltonian, config.with_updates(num_moments=n_large))]
        )
        [response] = service.serve([DoSRequest(hamiltonian, small)])

        assert response.source == "cache"
        assert response.num_moments_served == n_small
        assert service.metrics().cache_prefix_hits == 1
        assert service.metrics().engine_dispatches == 1

        direct = compute_dos(hamiltonian, small, backend=backend)
        assert np.array_equal(response.moments.mu, direct.moments.mu)
        assert np.array_equal(
            response.moments.per_realization, direct.moments.per_realization
        )
        assert np.array_equal(response.values, direct.density)

    @given(
        config=kpm_configs(),
        operator=st.sampled_from(sorted(OPERATORS)),
        backend=st.sampled_from(["numpy", "gpu-sim"]),
        orders=st.tuples(st.integers(2, 48), st.integers(2, 48)).filter(
            lambda pair: pair[0] != pair[1]
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_extension_matches_cold_one_shot(
        self, config, operator, backend, orders
    ):
        n_small, n_large = sorted(orders)
        hamiltonian = OPERATORS[operator]
        large = config.with_updates(num_moments=n_large)

        service = SpectralService(backends=(backend,))
        service.serve(
            [DoSRequest(hamiltonian, config.with_updates(num_moments=n_small))]
        )
        [response] = service.serve([DoSRequest(hamiltonian, large)])

        assert response.source == "extended"
        assert response.num_moments_served == n_large

        direct = compute_dos(hamiltonian, large, backend=backend)
        assert np.array_equal(response.moments.mu, direct.moments.mu)
        assert np.array_equal(
            response.moments.per_realization, direct.moments.per_realization
        )
        assert np.array_equal(response.values, direct.density)

    @given(
        config=kpm_configs(),
        operator=st.sampled_from(sorted(OPERATORS)),
        site=st.integers(0, 31),
        orders=st.tuples(st.integers(2, 48), st.integers(2, 48)).filter(
            lambda pair: pair[0] != pair[1]
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_ldos_prefix_and_extension_match_local_dos(
        self, config, operator, site, orders
    ):
        n_small, n_large = sorted(orders)
        hamiltonian = OPERATORS[operator]
        small = config.with_updates(num_moments=n_small)
        large = config.with_updates(num_moments=n_large)

        service = SpectralService(backends=("numpy",))
        service.serve([LDoSRequest(hamiltonian, site=site, config=large)])
        [low] = service.serve([LDoSRequest(hamiltonian, site=site, config=small)])
        assert low.source == "cache"
        energies, density = local_dos(hamiltonian, site, small)
        assert np.array_equal(low.values, density)
        assert np.array_equal(low.energies, energies)

        fresh = SpectralService(backends=("numpy",))
        fresh.serve([LDoSRequest(hamiltonian, site=site, config=small)])
        [ext] = fresh.serve([LDoSRequest(hamiltonian, site=site, config=large)])
        assert ext.source == "extended"
        energies, density = local_dos(hamiltonian, site, large)
        assert np.array_equal(ext.values, density)
        assert np.array_equal(ext.energies, energies)


class TestGatewayEquivalence:
    """Serving-v2 property: admission, EDF ordering, elastic capacity,
    and overload degradation may change *when* (or whether) a request is
    answered — never *what* the answer is.  For random multi-tenant
    timed traces on both bit-exact backends, every full-precision
    gateway answer must be bit-identical to a serial FIFO reference run,
    every degraded answer a bit-identical prefix of it, and every
    refusal valueless (:func:`repro.serve.check_equivalence`)."""

    @given(
        seed=st.integers(0, 2**31),
        backend=st.sampled_from(["numpy", "gpu-sim"]),
        num_requests=st.integers(4, 18),
        deadline_slack=st.sampled_from([0.3, 1.0, 50.0]),
        rate=st.sampled_from([0.2, 1.0, 100.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_gateway_equivalent_to_serial_fifo(
        self, seed, backend, num_requests, deadline_slack, rate
    ):
        arrivals = timed_trace(
            num_requests,
            seed=seed,
            duration=6.0,
            deadline_slack=deadline_slack,
            flash_crowds=1,
            flash_multiplier=6.0,
        )
        report = check_equivalence(
            arrivals,
            backend=backend,
            default_policy=TenantPolicy(rate=rate, burst=2.0 * rate),
        )
        assert report.ok, "\n".join(report.mismatches)
        assert report.total == num_requests
        assert (
            report.served + report.degraded + report.rejected + report.cancelled
            == num_requests
        )

    @given(seed=st.integers(0, 2**31), num_requests=st.integers(4, 14))
    @settings(max_examples=10, deadline=None)
    def test_gateway_replay_is_deterministic(self, seed, num_requests):
        arrivals = timed_trace(
            num_requests, seed=seed, duration=4.0, deadline_slack=0.5
        )

        def run():
            report = check_equivalence(
                arrivals,
                backend="gpu-sim",
                default_policy=TenantPolicy(rate=0.5, burst=1.0),
            )
            return (
                report.served,
                report.degraded,
                report.rejected,
                report.cancelled,
                report.mismatches,
            )

        assert run() == run()


class TestServeDeterminism:
    @given(config=kpm_configs(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_replaying_a_trace_is_deterministic(self, config, data):
        hamiltonian = OPERATORS["chain32"]
        tags = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))

        def run():
            service = SpectralService(backends=("numpy",))
            responses = service.serve(
                [DoSRequest(hamiltonian, config, tag=t) for t in tags]
            )
            return [
                (r.tag, r.source, r.batch_id, r.values.tobytes()) for r in responses
            ]

        assert run() == run()


class TestRefinedServing:
    """``flush_refined`` property: every tier is one growth step plus one
    answer.  After a low-order flush of a random synthetic trace, each
    streamed tier and each final response is served at the smaller of
    its request's ``N`` and its tier's order, bit-identical to a one-shot
    ``compute_dos`` / ``local_dos`` / ``greens_function`` at that order on
    the same backend; a batch's tier orders rise strictly and end at the
    batch's target unless an early stop is counted."""

    @given(
        seed=st.integers(0, 2**31),
        num_requests=st.integers(1, 8),
        backend=st.sampled_from(["numpy", "gpu-sim"]),
        low=st.integers(2, 16),
        growth=st.floats(1.0, 4.0, exclude_min=True),
        tolerance=st.sampled_from([None, 0.02, 0.1, 0.3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_tiers_match_one_shot_runs_at_their_order(
        self, seed, num_requests, backend, low, growth, tolerance
    ):
        trace = synthetic_trace(
            num_requests, seed=seed, green_fraction=0.3, ldos_fraction=0.3
        )
        service = SpectralService(backends=(backend,))
        service.serve(
            [
                dataclasses.replace(
                    request, config=request.config.with_updates(num_moments=low)
                )
                for request in trace
            ]
        )
        tiers = []
        for request in trace:
            service.submit(request)
        finals = service.flush_refined(
            growth=growth, tolerance=tolerance, on_tier=tiers.append
        )
        assert [r.tag for r in finals] == [r.tag for r in trace]
        assert all(r.final for r in finals)

        by_batch: dict[int, list] = {}
        for tier in tiers:
            assert all(not r.final for r in tier)
            by_batch.setdefault(tier[0].batch_id, []).append(tier)
        finals_by_batch: dict[int, list] = {}
        for request, response in zip(trace, finals):
            finals_by_batch.setdefault(response.batch_id, []).append(
                (request, response)
            )

        references: dict = {}
        early_stops = 0
        for batch_id, members in finals_by_batch.items():
            requests = [request for request, _ in members]
            target = max(r.config.num_moments for r in requests)
            streamed = by_batch.get(batch_id, [])
            answered = [*streamed, [response for _, response in members]]
            orders = [max(r.num_moments_served for r in tier) for tier in answered]
            assert orders == sorted(set(orders)), orders
            assert [tier[0].tier for tier in answered] == list(range(len(answered)))
            if orders[-1] < target:
                early_stops += 1
            for tier, order in zip(answered, orders):
                assert len(tier) == len(requests)
                for request, response in zip(requests, tier):
                    n = min(request.config.num_moments, order)
                    assert response.num_moments_served == n
                    energies, values = _one_shot(
                        references, request, n, backend
                    )
                    assert np.array_equal(response.values, values)
                    assert np.array_equal(response.energies, energies)
        assert service.metrics().early_stops == early_stops
        if tolerance is None:
            assert early_stops == 0


def _one_shot(references: dict, request, num_moments: int, backend: str):
    """``(energies, values)`` of a fresh direct call at ``num_moments``."""
    config = request.config.with_updates(num_moments=num_moments)
    site = getattr(request, "site", None)
    key = (id(request.hamiltonian), config, site, backend)
    if site is not None:
        if key not in references:
            references[key] = local_dos(request.hamiltonian, site, config)
        return references[key]
    if key not in references:
        references[key] = compute_dos(request.hamiltonian, config, backend=backend)
    direct = references[key]
    if isinstance(request, GreenRequest):
        energies = np.asarray(request.energies, dtype=np.float64)
        return energies, greens_function(
            direct.moments, direct.rescaling, energies, kernel=request.kernel
        )
    return direct.energies, direct.density
