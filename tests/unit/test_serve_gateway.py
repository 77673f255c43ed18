"""Unit tests for repro.serve.gateway (admission → EDF → degrade) and
the repro.serve.equivalence checker."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kpm import KPMConfig, compute_dos
from repro.lattice import chain, paper_cubic_hamiltonian, tight_binding_hamiltonian
from repro.serve import (
    DoSRequest,
    EdfCoalesceScheduler,
    GreenRequest,
    FifoCoalesceScheduler,
    Gateway,
    LDoSRequest,
    TenantPolicy,
    TimedArrival,
    check_equivalence,
    timed_trace,
)
from repro.sparse import DenseOperator
from repro.tune import Autotuner

H = tight_binding_hamiltonian(chain(32))
CONFIG = KPMConfig(num_moments=16, num_random_vectors=2, seed=3)


def gateway(**kwargs):
    kwargs.setdefault("template", ("gpu-sim",))
    return Gateway(**kwargs)


class TestOffer:
    def test_admitted_request_is_queued(self):
        gw = gateway()
        seq, response = gw.offer(DoSRequest(H, CONFIG))
        assert seq == 0 and response is None
        assert gw.scheduler.depth == 1
        [served] = gw.pump().values()
        assert served.outcome == "served" and served.final

    def test_rejection_is_immediate_and_terminal(self):
        gw = gateway(default_policy=TenantPolicy(rate=1e-9, burst=1e-9))
        seq, response = gw.offer(DoSRequest(H, CONFIG, tenant="broke"))
        assert response is not None
        assert response.outcome == "rejected"
        assert response.reason == "admission:rate"
        assert response.tenant == "broke"
        assert response.values is None
        assert gw.scheduler.depth == 0

    def test_quota_denial_reason(self):
        gw = gateway(default_policy=TenantPolicy(rate=100.0, burst=100.0,
                                                 quota=1e-9))
        _, response = gw.offer(DoSRequest(H, CONFIG))
        assert response.outcome == "rejected"
        assert response.reason == "admission:quota"

    def test_seq_assigned_to_every_offer(self):
        gw = gateway(default_policy=TenantPolicy(rate=1e-9, burst=1e-9))
        first, _ = gw.offer(DoSRequest(H, CONFIG))
        second, _ = gw.offer(DoSRequest(H, CONFIG))
        assert (first, second) == (0, 1)

    def test_now_advances_monotone_clock(self):
        gw = gateway()
        gw.offer(DoSRequest(H, CONFIG), now=4.0)
        assert gw.clock == 4.0
        gw.offer(DoSRequest(H, CONFIG), now=1.0)  # stale stamp: no rewind
        assert gw.clock == 4.0
        with pytest.raises(ValidationError):
            gw.offer(DoSRequest(H, CONFIG), now=-1.0)

    def test_malformed_request_raises(self):
        with pytest.raises(ValidationError):
            gateway().offer(DoSRequest(H, CONFIG, tenant=""))


class TestCancel:
    def test_cancel_refunds_and_records(self):
        gw = gateway()
        seq, _ = gw.offer(DoSRequest(H, CONFIG, tenant="acme"))
        charged = gw.admission.consumed("acme")
        assert charged > 0.0
        response = gw.cancel(seq)
        assert response.outcome == "cancelled"
        assert gw.admission.consumed("acme") == 0.0
        assert gw.scheduler.depth == 0
        assert gw.pump() == {}
        assert gw.gateway_metrics().cancelled == 1

    def test_cancel_after_dispatch_is_noop(self):
        gw = gateway()
        seq, _ = gw.offer(DoSRequest(H, CONFIG))
        gw.pump()
        assert gw.cancel(seq) is None
        assert gw.cancel(999) is None


class TestInheritedEntryPoints:
    """The service's submit/flush paths would skip admission and accounting."""

    REFUSED = "bypasses admission; use offer\\(\\) and pump\\(\\), or run_trace\\(\\)"

    def offered(self):
        gw = gateway(template=("numpy",))
        _, response = gw.offer(DoSRequest(H, CONFIG))
        assert response is None
        return gw

    def assert_untouched(self, gw, depth):
        assert gw.scheduler.depth == depth
        metrics = gw.gateway_metrics()
        assert (metrics.offered, metrics.served) == (depth, 0)

    def assert_pump_still_accounts(self, gw):
        [response] = gw.pump().values()
        assert response.outcome == "served"
        assert gw.gateway_metrics().served == 1
        assert gw._pending == {}

    def test_submit_refused(self):
        gw = gateway(template=("numpy",))
        with pytest.raises(ValidationError, match="Gateway.submit"):
            gw.submit(DoSRequest(H, CONFIG))
        self.assert_untouched(gw, 0)

    def test_serve_refused(self):
        gw = gateway(template=("numpy",))
        with pytest.raises(ValidationError, match=self.REFUSED):
            gw.serve([DoSRequest(H, CONFIG)])
        self.assert_untouched(gw, 0)

    def test_serve_refined_refused(self):
        gw = gateway(template=("numpy",))
        with pytest.raises(ValidationError, match="Gateway.serve_refined"):
            gw.serve_refined([DoSRequest(H, CONFIG)], growth=2.0)
        self.assert_untouched(gw, 0)

    def test_flush_refused(self):
        gw = self.offered()
        with pytest.raises(ValidationError, match="Gateway.flush"):
            gw.flush()
        self.assert_untouched(gw, 1)
        self.assert_pump_still_accounts(gw)

    def test_flush_refined_refused(self):
        gw = self.offered()
        with pytest.raises(ValidationError, match="Gateway.flush_refined"):
            gw.flush_refined(growth=2.0)
        self.assert_untouched(gw, 1)
        self.assert_pump_still_accounts(gw)


class PickyEngine:
    """Prices like gpu-sim, but every run fails on the request's side."""

    name = "picky"

    def __init__(self):
        from repro.gpukpm import GpuKPM

        self.priced = GpuKPM()

    def estimate_modeled_seconds(self, scaled_operator, config):
        return self.priced.estimate_modeled_seconds(scaled_operator, config)

    def compute_moments(self, scaled_operator, config):
        raise ValidationError("picky engine refuses this request")


class TestBatchErrors:
    def test_request_error_rejects_batch_and_refunds(self):
        gw = gateway(template=(PickyEngine(),))
        gw.offer(DoSRequest(H, CONFIG, tenant="acme"))
        gw.offer(DoSRequest(H, CONFIG, tenant="acme"))
        assert gw.admission.consumed("acme") > 0.0
        responses = list(gw.pump().values())
        assert [r.outcome for r in responses] == ["rejected", "rejected"]
        assert all(
            r.reason == "error: picky engine refuses this request"
            for r in responses
        )
        assert gw.admission.consumed("acme") == 0.0
        metrics = gw.gateway_metrics()
        assert (metrics.rejected, metrics.served, metrics.admitted) == (2, 0, 2)
        assert metrics.p99_latency_seconds == 0.0  # rejections are not answers
        assert gw.metrics().engine_failures == 0  # the request's fault

    def test_error_rejection_names_the_service(self):
        gw = gateway(template=(PickyEngine(),))
        gw.offer(DoSRequest(H, CONFIG))
        [response] = gw.pump().values()
        assert (response.outcome, response.source) == ("rejected", "service")

    def test_gateway_terminals_name_the_gateway(self):
        gw = gateway(default_policy=TenantPolicy(rate=1e-9, burst=1e-9))
        _, denied = gw.offer(DoSRequest(H, CONFIG))
        assert denied.source == "gateway"
        gw = gateway()
        seq, _ = gw.offer(DoSRequest(H, CONFIG))
        assert gw.cancel(seq).source == "gateway"


class TestDegradation:
    def warm(self, gw, num_moments=16):
        gw.offer(DoSRequest(H, CONFIG.with_updates(num_moments=num_moments)))
        gw.pump()

    def test_hopeless_deadline_served_from_prefix(self):
        gw = gateway()
        self.warm(gw)
        high = CONFIG.with_updates(num_moments=64)
        seq, _ = gw.offer(DoSRequest(H, high, deadline=gw.clock))
        [response] = gw.pump().values()
        assert response.outcome == "degraded"
        assert not response.final
        assert response.source == "cache"
        assert response.num_moments_served == 16
        assert response.modeled_seconds == 0.0
        assert "deadline" in response.reason

    def test_degraded_prefix_is_bit_identical(self):
        gw = gateway()
        self.warm(gw)
        seq, _ = gw.offer(
            DoSRequest(H, CONFIG.with_updates(num_moments=64), deadline=gw.clock)
        )
        [response] = gw.pump().values()
        direct = compute_dos(H, CONFIG, backend="gpu-sim")
        assert np.array_equal(response.moments.mu, direct.moments.mu)
        assert np.array_equal(response.values, direct.density)

    def test_no_prefix_means_late_full_service(self):
        gw = gateway()
        seq, _ = gw.offer(DoSRequest(H, CONFIG, deadline=gw.clock))
        [response] = gw.pump().values()
        assert response.outcome == "served" and response.final
        assert response.deadline_missed
        assert gw.gateway_metrics().deadline_misses == 1

    def test_degrade_false_always_serves_full(self):
        gw = gateway(degrade=False)
        self.warm(gw)
        seq, _ = gw.offer(
            DoSRequest(H, CONFIG.with_updates(num_moments=64), deadline=gw.clock)
        )
        [response] = gw.pump().values()
        assert response.outcome == "served"
        assert response.num_moments_served == 64
        assert response.deadline_missed

    def test_generous_deadline_not_degraded(self):
        gw = gateway()
        self.warm(gw)
        seq, _ = gw.offer(
            DoSRequest(H, CONFIG.with_updates(num_moments=64), deadline=1e6)
        )
        [response] = gw.pump().values()
        assert response.outcome == "served"
        assert response.num_moments_served == 64

    def test_degraded_member_error_rejects_only_that_member(self):
        # A Green energy outside the rescaled interval fails its
        # reconstruction from the cached prefix: that member is rejected,
        # its DoS batch-mate is degraded, and the replay goes on.
        gw = gateway()
        self.warm(gw)
        high = CONFIG.with_updates(num_moments=64)
        gw.offer(DoSRequest(H, high, tenant="acme", deadline=gw.clock))
        gw.offer(GreenRequest(H, energies=(100.0,), config=high, tenant="acme",
                              deadline=gw.clock))
        dos, green = gw.pump().values()
        assert dos.outcome == "degraded"
        assert green.outcome == "rejected"
        assert green.reason.startswith("error: energies must lie strictly inside")
        metrics = gw.gateway_metrics()
        assert (metrics.degraded, metrics.rejected) == (1, 1)

    def test_degraded_green_error_does_not_abort_the_replay(self):
        arrivals = [
            TimedArrival(at=0.0, request=DoSRequest(H, CONFIG)),
            TimedArrival(
                at=1.0,
                request=GreenRequest(
                    H,
                    energies=(100.0,),
                    config=CONFIG.with_updates(num_moments=256),
                    deadline=1.0 + 1e-7,
                ),
            ),
        ]
        responses = gateway().run_trace(arrivals, flush_interval=0.5)
        assert [(r.kind, r.outcome) for r in responses] == [
            ("dos", "served"),
            ("green", "rejected"),
        ]


class TestSchedulerKnob:
    def test_edf_default_fifo_optional(self):
        assert isinstance(gateway().scheduler, EdfCoalesceScheduler)
        fifo = gateway(edf=False).scheduler
        assert isinstance(fifo, FifoCoalesceScheduler)
        assert not isinstance(fifo, EdfCoalesceScheduler)


class TestRunTrace:
    def test_every_offer_answered_in_order(self):
        arrivals = timed_trace(30, seed=4, duration=10.0, deadline_slack=1.0)
        gw = gateway(template=("gpu-sim", "cpu-model"))
        responses = gw.run_trace(arrivals)
        assert len(responses) == 30
        metrics = gw.gateway_metrics()
        assert metrics.offered == 30
        assert (
            metrics.served + metrics.degraded + metrics.rejected
            + metrics.cancelled
        ) == 30
        outcomes = {r.outcome for r in responses}
        assert outcomes <= {"served", "degraded", "rejected", "cancelled"}

    def test_replay_is_deterministic(self):
        arrivals = timed_trace(25, seed=5, duration=8.0, deadline_slack=0.5)

        def run():
            gw = gateway(template=("gpu-sim", "cpu-model"),
                         default_policy=TenantPolicy(rate=0.5, burst=1.0))
            responses = gw.run_trace(arrivals)
            digest = []
            for r in responses:
                values = None if r.values is None else r.values.tobytes()
                digest.append((r.outcome, r.tenant, r.deadline_missed, values))
            return digest, gw.gateway_metrics().summary()

        assert run() == run()

    def test_invalid_arrival_is_rejected_and_replay_goes_on(self):
        asymmetric = np.array([[0.0, 1.0], [2.0, 0.0]])
        arrivals = [
            TimedArrival(at=0.1, request=DoSRequest(H, CONFIG)),
            TimedArrival(at=0.2, request=DoSRequest(asymmetric, CONFIG)),
            TimedArrival(at=0.3, request=DoSRequest(H, CONFIG, tag="third")),
        ]
        gw = gateway(template=("numpy",))
        first, bad, third = gw.run_trace(arrivals)
        assert first.outcome == "served" and third.outcome == "served"
        assert third.tag == "third"
        assert bad.outcome == "rejected" and bad.values is None
        assert bad.reason.startswith("invalid: ")
        assert "symmetric" in bad.reason
        assert gw.scheduler.depth == 0
        metrics = gw.gateway_metrics()
        assert (metrics.offered, metrics.rejected, metrics.served) == (3, 1, 2)
        direct = compute_dos(H, CONFIG, backend="numpy")
        assert np.array_equal(third.values, direct.density)

    @pytest.mark.parametrize(
        "empty", [np.zeros((0, 0)), DenseOperator(np.zeros((0, 0)))]
    )
    def test_empty_operator_arrival_is_rejected_and_replay_goes_on(self, empty):
        arrivals = timed_trace(10, seed=4, duration=10.0, deadline_slack=1.0)
        arrivals.insert(
            4,
            TimedArrival(
                at=arrivals[3].at, request=DoSRequest(empty, CONFIG, tag="empty")
            ),
        )
        with pytest.raises(ValidationError, match="empty"):
            gateway().offer(DoSRequest(empty, CONFIG))
        responses = gateway(template=("gpu-sim", "cpu-model")).run_trace(arrivals)
        assert len(responses) == 11
        bad = responses[4]
        assert bad.tag == "empty" and bad.outcome == "rejected"
        assert bad.reason.startswith("invalid: ") and "empty" in bad.reason

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_green_energy_is_never_served(self):
        # GreenRequest refuses a NaN energy; one forced past that check
        # still fails the reconstruction's interval test.
        forced = GreenRequest(
            H, energies=(0.5,), config=CONFIG.with_updates(seed=4), tag="nan"
        )
        object.__setattr__(forced, "energies", (float("nan"),))
        arrivals = [
            TimedArrival(at=0.1, request=DoSRequest(H, CONFIG)),
            TimedArrival(at=0.2, request=forced),
            TimedArrival(
                at=0.3, request=GreenRequest(H, energies=(0.5,), config=CONFIG)
            ),
        ]
        first, bad, good = gateway(template=("numpy",)).run_trace(arrivals)
        assert first.outcome == good.outcome == "served"
        assert bad.tag == "nan" and bad.outcome == "rejected"
        assert bad.values is None and "strictly inside" in bad.reason

    def test_tuned_gateway_serves_dense_arrival(self):
        dense = paper_cubic_hamiltonian(4, format="dense")
        arrivals = [
            TimedArrival(at=0.1, request=DoSRequest(H, CONFIG)),
            TimedArrival(at=0.2, request=DoSRequest(dense, CONFIG, tag="dense")),
        ]
        gw = gateway(tuner=Autotuner())
        first, second = gw.run_trace(arrivals)
        assert first.outcome == second.outcome == "served"
        assert second.tag == "dense"
        direct = compute_dos(dense, CONFIG, backend="gpu-sim")
        assert np.array_equal(second.values, direct.density)

    def test_validation(self):
        gw = gateway()
        with pytest.raises(ValidationError):
            gw.run_trace([DoSRequest(H, CONFIG)])
        descending = [
            TimedArrival(at=2.0, request=DoSRequest(H, CONFIG)),
            TimedArrival(at=1.0, request=DoSRequest(H, CONFIG)),
        ]
        with pytest.raises(ValidationError):
            gw.run_trace(descending)
        with pytest.raises(ValidationError):
            gw.run_trace([], flush_interval=0.0)


class TestGatewayMetrics:
    def test_per_tenant_counters_flow_through(self):
        arrivals = timed_trace(20, seed=6, tenants=2, duration=5.0)
        gw = gateway()
        gw.run_trace(arrivals)
        metrics = gw.gateway_metrics()
        assert set(metrics.per_tenant) <= {"tenant-0", "tenant-1"}
        total = sum(
            t["admitted"] + t["rejected"] for t in metrics.per_tenant.values()
        )
        assert total == metrics.offered
        assert 0.0 <= metrics.goodput_ratio <= 1.0
        assert "goodput=" in metrics.summary()

    def test_elastic_pool_reacts_to_load(self):
        arrivals = timed_trace(
            60, seed=7, duration=4.0, flash_crowds=2, flash_multiplier=8.0
        )
        gw = gateway(template=("gpu-sim", "cpu-model"), max_active=3)
        gw.run_trace(arrivals, flush_interval=0.5)
        metrics = gw.gateway_metrics()
        assert metrics.peak_active_engines >= metrics.active_engines
        assert metrics.scale_ups >= metrics.peak_active_engines - 1

    def test_pump_accumulates_host_wall_seconds(self):
        arrivals = timed_trace(12, seed=9, duration=3.0, deadline_slack=50.0)
        gw = gateway()
        assert gw.metrics().wall_seconds == 0.0
        gw.run_trace(arrivals)
        assert gw.gateway_metrics().served > 0
        assert gw.metrics().wall_seconds > 0.0


class TestEquivalence:
    def test_calm_trace_matches_fifo_reference(self):
        arrivals = timed_trace(16, seed=8, duration=4.0, deadline_slack=50.0)
        report = check_equivalence(arrivals, backend="gpu-sim")
        assert report.ok
        assert report.total == 16
        assert report.mismatches == ()
        assert "equivalent" in report.summary()

    def test_overloaded_trace_still_equivalent(self):
        arrivals = timed_trace(
            30, seed=9, duration=3.0, deadline_slack=0.3, flash_crowds=2,
            flash_multiplier=8.0,
        )
        report = check_equivalence(
            arrivals,
            backend="gpu-sim",
            default_policy=TenantPolicy(rate=0.5, burst=1.0),
        )
        assert report.ok
        # The levers must actually have engaged for this to mean much.
        assert report.degraded + report.rejected > 0


class TestOperatorMemo:
    """Admission and batch-cost prices come from the per-operator memo."""

    @pytest.mark.parametrize(
        "bad_value, message", [(2.0, "symmetric"), (np.nan, "finite")]
    )
    def test_rejected_operator_every_offer_takes_no_affinity(
        self, bad_value, message
    ):
        bad = H.to_dense().copy()
        bad[0, 1] = bad_value
        gw = gateway(template=("gpu-sim", "cpu-model"), min_active=2)
        for _ in range(3):
            with pytest.raises(ValidationError, match=message):
                gw.offer(DoSRequest(bad, CONFIG))
        assert len(gw.memo) == 0
        # Had the rejections taken affinity indices 0-2, this first valid
        # key would land on slot 3 % 2 = cpu-model.
        gw.offer(DoSRequest(H, CONFIG))
        [served] = gw.pump().values()
        assert served.engine == "gpu-sim"

    def test_ldos_sites_share_one_price_and_one_tuned_copy(self, monkeypatch):
        # Five sites of one operator, spread over a gpu-sim and a cpu-model
        # slot (which has no estimator, so prices 0): one gpu-sim estimate
        # and one CSR -> ELL conversion.  Each admission price is its
        # slot's fresh estimate and each answer equals local_dos.
        from repro.gpukpm.pipeline import GpuKPM
        from repro.kpm import local_dos
        from repro.sparse import CSRMatrix, ELLMatrix

        estimates = []
        estimate = GpuKPM.estimate_modeled_seconds

        def counted_estimate(engine, scaled, config):
            estimates.append(config)
            return estimate(engine, scaled, config)

        monkeypatch.setattr(GpuKPM, "estimate_modeled_seconds", counted_estimate)
        conversions = []
        to_ell = CSRMatrix.to_ell

        def counted_to_ell(matrix, *args, **kwargs):
            conversions.append(matrix.shape)
            return to_ell(matrix, *args, **kwargs)

        monkeypatch.setattr(CSRMatrix, "to_ell", counted_to_ell)
        hamiltonian = paper_cubic_hamiltonian(4, format="csr")
        config = KPMConfig(num_moments=32, num_random_vectors=4)
        sites = (0, 5, 9, 17, 40)
        gw = gateway(
            template=("gpu-sim", "cpu-model"), min_active=2, tuner=Autotuner()
        )
        for site in sites:
            gw.offer(LDoSRequest(hamiltonian, site=site, config=config))
        prices = dict(gw._pending)
        responses = gw.pump()
        assert len(estimates) == 1
        assert len(conversions) == 1
        [(_, facts)] = gw.memo.items()
        [scaled] = {id(op): op for op, _ in facts.scaled.values()}.values()
        assert isinstance(scaled, ELLMatrix)
        fresh = estimate(GpuKPM(), scaled, config)
        assert sorted(prices.values()) == [0.0, 0.0, fresh, fresh, fresh]
        for seq, site in enumerate(sites):
            _, expected = local_dos(hamiltonian, site, config)
            assert responses[seq].outcome == "served"
            assert responses[seq].values.tobytes() == expected.tobytes()

    def test_memoized_prices_equal_fresh_estimates(self):
        arrivals = timed_trace(
            60, seed=5, tenants=3, duration=6.0, deadline_slack=0.5,
            flash_crowds=1, flash_multiplier=8.0,
        )
        gw = gateway(template=("gpu-sim", "cpu-model"), max_active=3,
                     default_policy=TenantPolicy(rate=0.8, burst=2.0))
        gw.run_trace(arrivals)
        slots = {slot.name: slot for slot in gw.pool.slots}
        checked = 0
        for _, facts in gw.memo.items():
            # An LDoS price is keyed without its site, by the storage priced.
            priced_on = {
                ("site", *key[2:], type(scaled).__name__) if key[0] == "site" else key:
                scaled
                for key, (scaled, _) in facts.scaled.items()
            }
            for (name, identity, config), cost in facts.prices.items():
                if not isinstance(config, KPMConfig):
                    continue  # a naive cost, fixed per (engine, key, order)
                scaled = priced_on[identity]
                fresh = slots[name].engine.estimate_modeled_seconds(scaled, config)
                assert cost == fresh
                checked += 1
        assert checked > 0
