"""Unit tests for repro.serve.service (SpectralService end-to-end)."""

import numpy as np
import pytest

from repro.errors import FaultError, LaunchError, OutOfMemoryError, ValidationError
from repro.kpm import KPMConfig, compute_dos, local_dos
from repro.kpm.green import greens_function
from repro.lattice import chain, paper_cubic_hamiltonian, tight_binding_hamiltonian
from repro.serve import (
    DoSRequest,
    GreenRequest,
    LDoSRequest,
    SpectralService,
)
from repro.sparse import CSRMatrix
from repro.tune import Autotuner


class FlakyEngine:
    """Engine that fails ``failures`` times, then delegates to numpy."""

    name = "flaky"

    def __init__(self, failures: int, exc=LaunchError):
        from repro.kpm.engines import NumpyEngine

        self.remaining = failures
        self.exc = exc
        self.delegate = NumpyEngine()
        self.calls = 0

    def compute_moments(self, scaled_operator, config):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc("injected fault")
        return self.delegate.compute_moments(scaled_operator, config)


class TestBitIdentity:
    def test_dos_matches_compute_dos(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        [response] = service.serve([DoSRequest(chain_csr, small_config)])
        direct = compute_dos(chain_csr, small_config, backend="numpy")
        assert np.array_equal(response.values, direct.density)
        assert np.array_equal(response.energies, direct.energies)
        assert np.array_equal(response.moments.mu, direct.moments.mu)

    def test_coalesced_matches_computed(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        responses = service.serve(
            [DoSRequest(chain_csr, small_config) for _ in range(3)]
        )
        assert [r.source for r in responses] == ["computed", "coalesced", "coalesced"]
        direct = compute_dos(chain_csr, small_config, backend="gpu-sim")
        for response in responses:
            assert np.array_equal(response.values, direct.density)
        assert service.metrics().engine_dispatches == 1

    def test_cache_hit_matches_fresh(self, cube4_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        [first] = service.serve([DoSRequest(cube4_csr, small_config)])
        [replay] = service.serve([DoSRequest(cube4_csr, small_config)])
        assert replay.source == "cache"
        assert np.array_equal(replay.values, first.values)
        direct = compute_dos(cube4_csr, small_config, backend="gpu-sim")
        assert np.array_equal(replay.values, direct.density)
        assert replay.modeled_seconds == 0.0

    def test_green_shares_dos_moments(self, chain_csr, small_config):
        energies = (-0.5, 0.0, 0.5)
        service = SpectralService(backends=("numpy",))
        responses = service.serve([
            DoSRequest(chain_csr, small_config),
            GreenRequest(chain_csr, energies=energies, config=small_config),
        ])
        assert service.metrics().batches_total == 1
        direct = compute_dos(chain_csr, small_config, backend="numpy")
        expected = greens_function(
            direct.moments, direct.rescaling, np.asarray(energies)
        )
        assert np.array_equal(responses[1].values, expected)

    def test_ldos_matches_local_dos(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        [response] = service.serve([LDoSRequest(chain_csr, site=5, config=small_config)])
        energies, density = local_dos(chain_csr, 5, small_config)
        assert np.array_equal(response.values, density)
        assert np.array_equal(response.energies, energies)
        assert response.engine == "host"

    def test_to_dos_result_roundtrip(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        [response] = service.serve([DoSRequest(chain_csr, small_config)])
        result = response.to_dos_result()
        assert np.array_equal(result.density, response.values)
        assert result.integrate() == pytest.approx(1.0, abs=0.05)


class TestTunedDenseStorage:
    """A tuned service converts dense-stored operators like any other."""

    CONFIG = KPMConfig(num_moments=32, num_random_vectors=4)

    @staticmethod
    def _requests(hamiltonian, config):
        return [
            DoSRequest(hamiltonian, config),
            GreenRequest(hamiltonian, energies=(-0.5, 0.0, 0.5), config=config),
            LDoSRequest(hamiltonian, site=3, config=config),
        ]

    @staticmethod
    def _assert_same_answer(response, reference):
        assert response.outcome == reference.outcome == "served"
        assert response.values.tobytes() == reference.values.tobytes()
        assert response.energies.tobytes() == reference.energies.tobytes()
        moments = getattr(response.moments, "mu", response.moments)
        expected = getattr(reference.moments, "mu", reference.moments)
        assert np.asarray(moments).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("storage", ["operator", "ndarray"])
    def test_dense_requests_match_untuned(self, storage):
        hamiltonian = paper_cubic_hamiltonian(4, format="dense")
        if storage == "ndarray":
            hamiltonian = hamiltonian.to_dense()
        tuned = SpectralService(("gpu-sim",), tuner=Autotuner()).serve(
            self._requests(hamiltonian, self.CONFIG)
        )
        untuned = SpectralService(("gpu-sim",)).serve(
            self._requests(hamiltonian, self.CONFIG)
        )
        for response, reference in zip(tuned, untuned):
            self._assert_same_answer(response, reference)

    def test_flush_answers_csr_then_dense(self):
        csr = paper_cubic_hamiltonian(4, format="csr")
        dense = paper_cubic_hamiltonian(4, format="dense")
        service = SpectralService(("gpu-sim",), tuner=Autotuner())
        service.submit(DoSRequest(csr, self.CONFIG))
        service.submit(DoSRequest(dense, self.CONFIG))
        first, second = service.flush()
        [reference] = SpectralService(("gpu-sim",)).serve(
            [DoSRequest(dense, self.CONFIG)]
        )
        assert first.outcome == "served"
        self._assert_same_answer(second, reference)

    @pytest.mark.parametrize("storage, conversions", [("dense", 1), ("csr", 0)])
    def test_converts_dense_storage_once_per_key(
        self, monkeypatch, storage, conversions
    ):
        # The tuner profiles and the service re-stores the same CSR copy.
        calls = []
        from_dense = CSRMatrix.from_dense.__func__

        def counting(cls, dense, **kwargs):
            calls.append(dense.shape)
            return from_dense(cls, dense, **kwargs)

        monkeypatch.setattr(CSRMatrix, "from_dense", classmethod(counting))
        hamiltonian = paper_cubic_hamiltonian(6, format=storage)
        service = SpectralService(("gpu-sim",), tuner=Autotuner())
        [response] = service.serve([DoSRequest(hamiltonian, self.CONFIG)])
        assert response.outcome == "served"
        assert len(calls) == conversions


class TestSchedulingAndMetrics:
    def test_responses_in_submission_order(self, chain_csr, cube4_csr, small_config):
        service = SpectralService(backends=("numpy",))
        tags = ["a", "b", "c", "d"]
        requests = [
            DoSRequest(chain_csr, small_config, tag="a"),
            DoSRequest(cube4_csr, small_config, tag="b"),
            DoSRequest(chain_csr, small_config, tag="c"),
            DoSRequest(cube4_csr, small_config, tag="d"),
        ]
        responses = service.serve(requests)
        assert [r.tag for r in responses] == tags
        # ...even though execution coalesced them into two batches.
        assert service.metrics().batches_total == 2

    def test_metrics_counters(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        service.serve([DoSRequest(chain_csr, small_config)] * 2)
        service.serve([DoSRequest(chain_csr, small_config)])
        metrics = service.metrics()
        assert metrics.requests_total == 3
        assert metrics.responses_total == 3
        assert metrics.batches_total == 2
        assert metrics.coalesced_requests == 1
        assert (metrics.cache_hits, metrics.cache_misses) == (1, 1)
        assert metrics.cache_size == 1
        assert metrics.queue_peak_depth == 2
        assert metrics.engine_dispatches == 1
        assert metrics.cache_hit_rate() == pytest.approx(0.5)
        # naive = 3 plain modeled runs, served = 1 resumable run (which
        # pays a small checkpoint-capture surcharge the plain runs do
        # not) — so the speedup sits just below the ideal 3x.
        assert 2.9 < metrics.modeled_speedup() <= 3.0
        report = metrics.timing_report()
        assert report.backend == "serve"
        assert report.breakdown["saved"] == pytest.approx(
            metrics.modeled_naive_seconds - metrics.modeled_served_seconds
        )
        assert "speedup" in metrics.summary()

    def test_max_batch_size_first_computes_rest_hit_cache(
        self, chain_csr, small_config
    ):
        service = SpectralService(backends=("gpu-sim",), max_batch_size=2)
        responses = service.serve([DoSRequest(chain_csr, small_config)] * 5)
        assert [r.source for r in responses] == [
            "computed", "coalesced", "cache", "cache", "cache",
        ]
        assert service.metrics().engine_dispatches == 1

    def test_flush_on_empty_queue(self):
        service = SpectralService(backends=("numpy",))
        assert service.flush() == []


class TestHealthIntegration:
    def test_failover_and_ejection(self, chain_csr, small_config):
        flaky = FlakyEngine(failures=100)
        service = SpectralService(backends=(flaky, "numpy"), eject_after=1)
        [response] = service.serve([DoSRequest(chain_csr, small_config)])
        assert response.engine == "numpy"
        direct = compute_dos(chain_csr, small_config, backend="numpy")
        assert np.array_equal(response.values, direct.density)
        metrics = service.metrics()
        assert metrics.engine_failures == 1
        assert metrics.engine_ejections == 1

    def test_oom_counts_as_device_fault(self, chain_csr, small_config):
        flaky = FlakyEngine(failures=1, exc=OutOfMemoryError)
        service = SpectralService(backends=(flaky, "numpy"), eject_after=1)
        service.serve([DoSRequest(chain_csr, small_config)])
        assert service.metrics().engine_ejections == 1

    def test_all_engines_sick_raises_fault(self, chain_csr, small_config):
        service = SpectralService(backends=(FlakyEngine(failures=100),))
        with pytest.raises(FaultError, match="no healthy engine"):
            service.serve([DoSRequest(chain_csr, small_config)])

    def test_recovered_engine_serves_again(self, chain_csr, small_config):
        flaky = FlakyEngine(failures=1)
        # Cache disabled so the replayed key reaches the pool again.
        service = SpectralService(
            backends=(flaky, "numpy"),
            cache_capacity=0,
            eject_after=1,
            readmit_after=1,
        )
        [first] = service.serve([DoSRequest(chain_csr, small_config)])
        assert first.engine == "numpy"  # failed over after the injected fault
        [second] = service.serve([DoSRequest(chain_csr, small_config)])
        assert second.engine == "flaky"  # readmitted, now healthy
        assert service.metrics().engine_readmissions == 1


class TestValidation:
    def test_rejects_non_request(self):
        with pytest.raises(ValidationError, match="DoSRequest"):
            SpectralService().submit("not a request")

    def test_rejects_asymmetric_operator(self, small_config):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            SpectralService().submit(DoSRequest(bad, small_config))

    def test_rejects_out_of_range_site(self, chain_csr, small_config):
        with pytest.raises(ValidationError, match="out of range"):
            SpectralService().submit(
                LDoSRequest(chain_csr, site=64, config=small_config)
            )

    def test_batch_request_error_rejects_only_that_batch(self):
        # The 4-device cluster cannot split R=2 vectors: the middle batch
        # fails on its own request while the others are served.
        configs = [
            (chain(32), KPMConfig(num_moments=16, num_random_vectors=8, seed=1)),
            (chain(40), KPMConfig(num_moments=16, num_random_vectors=2, seed=1)),
            (chain(40), KPMConfig(num_moments=16, num_random_vectors=8, seed=1)),
        ]
        service = SpectralService(("cluster",))
        for lattice, config in configs:
            service.submit(DoSRequest(tight_binding_hamiltonian(lattice), config))
        first, bad, third = service.flush()
        assert bad.outcome == "rejected" and bad.values is None
        assert bad.reason == (
            "error: num_devices (4) exceeds the number of random vectors (2)"
        )
        for response, (lattice, config) in ((first, configs[0]), (third, configs[2])):
            assert response.outcome == "served"
            direct = compute_dos(
                tight_binding_hamiltonian(lattice), config, backend="cluster"
            )
            assert np.array_equal(response.values, direct.density)
        assert service.scheduler.depth == 0
        assert service.flush() == []
        metrics = service.metrics()
        assert metrics.responses_total == 3
        assert metrics.engine_failures == 0

    def test_batch_error_rejection_names_the_service(self):
        # The 4-device cluster cannot split R=2 vectors; no gateway is
        # involved, so the rejection must not claim to come from one.
        service = SpectralService(("cluster",))
        config = KPMConfig(num_moments=16, num_random_vectors=2, seed=1)
        service.submit(DoSRequest(tight_binding_hamiltonian(chain(40)), config))
        [response] = service.flush()
        assert response.outcome == "rejected"
        assert response.source == "service"

    def test_request_error_does_not_penalize_engine(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        with pytest.raises(ValidationError):
            service.submit("garbage")
        [response] = service.serve([DoSRequest(chain_csr, small_config)])
        assert response.source == "computed"
        assert service.metrics().engine_failures == 0


class TestPrefixServing:
    """The tentpole: order-free keys, prefix hits, in-place extensions."""

    def test_lower_order_repeat_is_prefix_hit(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        service.serve([DoSRequest(chain_csr, small_config)])  # N=32
        low = small_config.with_updates(num_moments=16)
        [response] = service.serve([DoSRequest(chain_csr, low)])
        assert response.source == "cache"
        assert response.num_moments_served == 16
        direct = compute_dos(chain_csr, low, backend="gpu-sim")
        assert np.array_equal(response.moments.mu, direct.moments.mu)
        assert np.array_equal(response.values, direct.density)
        metrics = service.metrics()
        assert metrics.cache_prefix_hits == 1
        assert metrics.engine_dispatches == 1  # the repeat never ran an engine

    def test_higher_order_repeat_extends_in_place(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        service.serve([DoSRequest(chain_csr, small_config)])  # N=32
        high = small_config.with_updates(num_moments=48)
        [response] = service.serve([DoSRequest(chain_csr, high)])
        assert response.source == "extended"
        assert response.num_moments_served == 48
        direct = compute_dos(chain_csr, high, backend="gpu-sim")
        assert np.array_equal(response.moments.mu, direct.moments.mu)
        assert np.array_equal(
            response.moments.per_realization, direct.moments.per_realization
        )
        assert np.array_equal(response.values, direct.density)
        # The resume only pays for the new orders.
        assert response.modeled_seconds < direct.timing.modeled_seconds
        assert service.metrics().cache_extensions == 1

    def test_mixed_orders_coalesce_into_one_run(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        orders = [16, 32, 24]
        responses = service.serve(
            [
                DoSRequest(chain_csr, small_config.with_updates(num_moments=n))
                for n in orders
            ]
        )
        assert service.metrics().engine_dispatches == 1
        assert service.metrics().batches_total == 1
        for response, n in zip(responses, orders):
            assert response.num_moments_served == n
            direct = compute_dos(
                chain_csr,
                small_config.with_updates(num_moments=n),
                backend="gpu-sim",
            )
            assert np.array_equal(response.moments.mu, direct.moments.mu)
            assert np.array_equal(response.values, direct.density)

    def test_ldos_extends_on_host(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        service.serve([LDoSRequest(chain_csr, site=3, config=small_config)])
        high = small_config.with_updates(num_moments=48)
        [response] = service.serve(
            [LDoSRequest(chain_csr, site=3, config=high)]
        )
        assert response.source == "extended"
        energies, density = local_dos(chain_csr, 3, high)
        assert np.array_equal(response.values, density)
        assert np.array_equal(response.energies, energies)

    def test_exact_mode_knob_disables_prefix_serving(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",), prefix_cache=False)
        service.serve([DoSRequest(chain_csr, small_config)])
        low = small_config.with_updates(num_moments=16)
        [response] = service.serve([DoSRequest(chain_csr, low)])
        assert response.source == "computed"
        assert service.metrics().cache_prefix_hits == 0
        assert service.metrics().engine_dispatches == 2


class TestRefinement:
    def test_flush_refined_streams_tiers(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        low = small_config.with_updates(num_moments=8)
        service.serve([DoSRequest(chain_csr, low)])
        tiers = []
        high = small_config.with_updates(num_moments=32)
        [response] = service.serve_refined(
            [DoSRequest(chain_csr, high)], on_tier=tiers.append
        )
        # growth=2 from the cached N=8 prefix: tiers at 8 and 16, final 32.
        assert [t[0].num_moments_served for t in tiers] == [8, 16]
        assert all(not t[0].final for t in tiers)
        assert [t[0].tier for t in tiers] == [0, 1]
        assert response.final and response.tier == 2
        assert response.num_moments_served == 32
        # Every tier is bit-identical to a one-shot run at its order.
        for tier in tiers:
            order = tier[0].num_moments_served
            direct = compute_dos(
                chain_csr,
                small_config.with_updates(num_moments=order),
                backend="gpu-sim",
            )
            assert np.array_equal(tier[0].values, direct.density)
        direct = compute_dos(chain_csr, high, backend="gpu-sim")
        assert np.array_equal(response.values, direct.density)
        metrics = service.metrics()
        assert metrics.refined_tiers == 2
        assert metrics.early_stops == 0

    def test_flush_refined_early_stop(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        low = small_config.with_updates(num_moments=8)
        service.serve([DoSRequest(chain_csr, low)])
        high = small_config.with_updates(num_moments=64)
        [response] = service.serve_refined(
            [DoSRequest(chain_csr, high)], tolerance=1e3
        )
        # The huge tolerance converges at tier 0: served straight from
        # the cached prefix, bit-identical to a one-shot N=8 run.
        assert response.final and response.tier == 0
        assert response.num_moments_served == 8
        direct = compute_dos(chain_csr, low, backend="gpu-sim")
        assert np.array_equal(response.values, direct.density)
        metrics = service.metrics()
        assert metrics.early_stops == 1
        assert metrics.engine_dispatches == 1  # nothing recomputed

    def test_flush_refined_cold_key_falls_back(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        [response] = service.serve_refined([DoSRequest(chain_csr, small_config)])
        assert response.source == "computed"
        assert response.final and response.tier == 0
        direct = compute_dos(chain_csr, small_config, backend="gpu-sim")
        assert np.array_equal(response.values, direct.density)

    def test_huge_finite_growth_jumps_to_the_target(self):
        h = tight_binding_hamiltonian(chain(32))
        config = KPMConfig(num_moments=16, num_random_vectors=4, seed=5)
        service = SpectralService()
        service.serve([DoSRequest(h, config)])
        high = config.with_updates(num_moments=64)
        service.submit(DoSRequest(h, high))
        [response] = service.flush_refined(growth=1e308)
        assert service.scheduler.depth == 0
        assert response.final and response.tier == 1
        assert response.num_moments_served == 64
        direct = compute_dos(h, high, backend="numpy")
        assert np.array_equal(response.values, direct.density)

    def test_flush_refined_validation(self):
        service = SpectralService(backends=("numpy",))
        with pytest.raises(ValidationError, match="growth"):
            service.flush_refined(growth=1.0)
        with pytest.raises(ValidationError, match="tolerance"):
            service.flush_refined(tolerance=0.0)


class TestCapacityZeroForwarding:
    """Satellite: split-oversized siblings must not silently recompute."""

    def test_split_batches_forward_without_cache(self, chain_csr, small_config):
        service = SpectralService(
            backends=("gpu-sim",), cache_capacity=0, max_batch_size=2
        )
        responses = service.serve([DoSRequest(chain_csr, small_config)] * 5)
        assert [r.source for r in responses] == [
            "computed", "coalesced", "forwarded", "forwarded", "forwarded",
        ]
        assert service.metrics().engine_dispatches == 1
        assert service.metrics().cache_forwards == 2  # two sibling batches
        direct = compute_dos(chain_csr, small_config, backend="gpu-sim")
        for response in responses:
            assert np.array_equal(response.values, direct.density)
        assert responses[2].modeled_seconds == 0.0

    def test_forwarding_is_flush_local(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",), cache_capacity=0)
        service.serve([DoSRequest(chain_csr, small_config)])
        [replay] = service.serve([DoSRequest(chain_csr, small_config)])
        # A later flush has no cache and no forward table: honest recompute.
        assert replay.source == "computed"
        assert service.metrics().engine_dispatches == 2


class TestFreshServiceMetrics:
    """Satellite: rate/speedup guards on a service that served nothing."""

    def test_fresh_service_summary_never_raises(self):
        metrics = SpectralService(backends=("numpy",)).metrics()
        assert metrics.cache_hit_rate() == 0.0
        assert metrics.modeled_speedup() == 1.0
        text = metrics.summary()
        assert "nan" not in text and "inf" not in text

    def test_unmodeled_backend_summary_is_finite(self, chain_csr, small_config):
        service = SpectralService(backends=("numpy",))
        service.serve([DoSRequest(chain_csr, small_config)] * 2)
        metrics = service.metrics()
        # numpy has no hardware model: naive/served stay zero, the ratio
        # degrades to neutral 1.0 and the summary omits the modeled part.
        assert metrics.modeled_speedup() == 1.0
        text = metrics.summary()
        assert "nan" not in text and "inf" not in text
        assert "speedup" not in text


class TestResponseAliasing:
    """Satellite: responses share the cached arrays — mutation fails loudly."""

    def test_mutating_a_response_cannot_poison_the_cache(
        self, chain_csr, small_config
    ):
        service = SpectralService(backends=("gpu-sim",))
        [first] = service.serve([DoSRequest(chain_csr, small_config)])
        with pytest.raises(ValueError, match="read-only"):
            first.moments.mu[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            first.moments.per_realization[:] = 0.0
        [replay] = service.serve([DoSRequest(chain_csr, small_config)])
        direct = compute_dos(chain_csr, small_config, backend="gpu-sim")
        assert np.array_equal(replay.moments.mu, direct.moments.mu)
        assert np.array_equal(replay.values, direct.density)

    def test_prefix_slice_response_is_read_only(self, chain_csr, small_config):
        service = SpectralService(backends=("gpu-sim",))
        service.serve([DoSRequest(chain_csr, small_config)])
        low = small_config.with_updates(num_moments=16)
        [response] = service.serve([DoSRequest(chain_csr, low)])
        with pytest.raises(ValueError, match="read-only"):
            response.moments.mu[0] = 99.0


class TestOperatorMemo:
    """Each distinct operator is validated, rescaled and priced once."""

    @staticmethod
    def _count_validations(monkeypatch) -> list:
        import repro.serve.service as service_module

        calls = []
        original = service_module.validate_spectral_operator

        def counted(operator):
            calls.append(operator)
            return original(operator)

        monkeypatch.setattr(service_module, "validate_spectral_operator", counted)
        return calls

    def test_repeat_operator_is_validated_once(
        self, chain_csr, small_config, monkeypatch
    ):
        calls = self._count_validations(monkeypatch)
        service = SpectralService(backends=("numpy",))
        for _ in range(3):
            service.submit(DoSRequest(chain_csr, small_config))
        service.submit(LDoSRequest(chain_csr, site=3, config=small_config))
        assert len(calls) == 1

    def test_operator_mutated_in_place_is_validated_again(
        self, small_config, monkeypatch
    ):
        calls = self._count_validations(monkeypatch)
        op = tight_binding_hamiltonian(chain(32), format="csr")
        service = SpectralService(backends=("numpy",))
        service.serve([DoSRequest(op, small_config)])
        op.data *= 2.0  # still symmetric, but new content: a new key
        [second] = service.serve([DoSRequest(op, small_config)])
        assert len(calls) == 2
        assert second.source == "computed"
        direct = compute_dos(op, small_config, backend="numpy")
        assert np.array_equal(second.values, direct.density)
        op.data[np.flatnonzero(op.indices == 1)[0]] += 1.0  # a_01 != a_10
        with pytest.raises(ValidationError, match="symmetric"):
            service.submit(DoSRequest(op, small_config))
        assert len(calls) == 3

    def test_operator_without_fingerprint_is_validated_first(self, small_config):
        class Unhashed:
            """Operator protocol, but no fingerprint()."""

            def __init__(self, op):
                self.shape = op.shape
                self.nnz_stored = op.nnz_stored
                self.nbytes = op.nbytes
                for name in ("matvec", "matmat", "to_dense", "diagonal",
                             "offdiag_abs_row_sums", "is_symmetric"):
                    setattr(self, name, getattr(op, name))

        service = SpectralService(backends=("numpy",))
        asymmetric = CSRMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValidationError, match="symmetric"):
            service.submit(DoSRequest(Unhashed(asymmetric), small_config))
        symmetric = tight_binding_hamiltonian(chain(8), format="csr")
        with pytest.raises(ValidationError, match="fingerprint"):
            service.submit(DoSRequest(Unhashed(symmetric), small_config))
        assert len(service.memo) == 0

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_memo_holds_at_most_capacity_operators(self, capacity, small_config):
        ops = [
            tight_binding_hamiltonian(chain(16 + 4 * i), format="csr")
            for i in range(4)
        ]
        service = SpectralService(backends=("gpu-sim",), cache_capacity=capacity)
        # Revisits arrive after their operator was evicted: every fact is
        # derived again, and the answers do not depend on the bound.
        for op in ops + ops[::-1] + ops:
            [response] = service.serve([DoSRequest(op, small_config)])
            assert len(service.memo) <= max(capacity, 1)
            direct = compute_dos(op, small_config, backend="gpu-sim")
            assert np.array_equal(response.moments.mu, direct.moments.mu)
            assert np.array_equal(response.values, direct.density)
