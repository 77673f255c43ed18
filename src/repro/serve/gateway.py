"""Multi-tenant serving gateway: admission → EDF → dispatch → degrade.

:class:`Gateway` is the serving-v2 front door over the PR 3/7
:class:`~repro.serve.SpectralService` machinery.  It keeps the service's
coalescing, prefix cache, extension path, and health tracking — every
moment that leaves the gateway is produced by exactly the same code —
and layers the production concerns on top:

* **Admission** (:mod:`repro.serve.admission`): every offered request is
  priced analytically (``estimate_modeled_seconds`` — no device time is
  spent on a doomed request) and charged against its tenant's token
  bucket and quota; denials return a ``rejected`` response immediately.
* **EDF scheduling** (:class:`~repro.serve.EdfCoalesceScheduler`):
  queued work drains tightest-deadline-first with priority and
  submission-order tie-breaks.  Group membership is identical to FIFO,
  so full-precision answers stay bit-identical — only *when* work runs
  changes.
* **Cancellation**: an admitted request can be withdrawn any time
  before dispatch; its admission cost is refunded and a ``cancelled``
  response recorded.
* **Overload degradation**: when a batch's projected finish overruns
  its earliest member deadline and the cache holds a lower-``N`` prefix
  for the key, the gateway answers the whole batch *degraded* from the
  prefix (``final=False``, bit-identical to the full answer's leading
  moments) instead of queueing past the deadline.  With no prefix to
  fall back on it serves late and marks ``deadline_missed``.
* **Elastic capacity** (:class:`~repro.serve.ElasticEnginePool`): at
  every replay window the pool is rebalanced against the admitted
  demand rate, growing into C2050-class simulated devices under load
  and shrinking back when the diurnal curve ebbs.

Time is entirely modeled: the gateway clock advances with trace
arrival stamps and with dispatched engine work (modeled seconds divided
by the active engine count), never with the wall clock, so a replay of
the same :func:`repro.serve.timed_trace` is bit-for-bit reproducible —
the property suite and :mod:`repro.serve.equivalence` lean on that.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import NoReturn

from repro.errors import DeviceError, ReproError, ValidationError
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.health import ElasticEnginePool
from repro.serve.requests import SpectralResponse
from repro.serve.scheduler import Batch, EdfCoalesceScheduler, QueuedRequest
from repro.serve.service import SpectralService
from repro.serve.traffic import TimedArrival
from repro.timing import WallTimer
from repro.util.validation import check_positive_float

__all__ = ["Gateway", "GatewayMetrics"]


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class GatewayMetrics:
    """Snapshot of the gateway's serving-quality counters.

    Latencies are *modeled* seconds from arrival to answer, nearest-rank
    percentiles over every answered (served or degraded) request.
    ``goodput_ratio`` is the fraction of offered requests *answered
    before their deadline* — full-precision serves plus degraded
    prefix answers, excluding every late delivery — the headline
    number the PR 8 bench gates against the FIFO baseline (where it
    reduces to on-time full-precision serves, since the baseline never
    degrades).
    """

    offered: int
    admitted: int
    rejected: int
    cancelled: int
    served: int
    degraded: int
    deadline_misses: int
    clock_seconds: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    goodput_ratio: float
    degraded_ratio: float
    active_engines: int
    peak_active_engines: int
    scale_ups: int
    scale_downs: int
    per_tenant: dict[str, dict[str, float]]

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"offered={self.offered} served={self.served} "
            f"degraded={self.degraded} rejected={self.rejected} "
            f"cancelled={self.cancelled} misses={self.deadline_misses} "
            f"goodput={self.goodput_ratio:.3f} "
            f"p50={self.p50_latency_seconds:.3f}s "
            f"p99={self.p99_latency_seconds:.3f}s "
            f"engines={self.active_engines}(peak {self.peak_active_engines})"
        )


class Gateway(SpectralService):
    """Admission-controlled, deadline-aware front door (see module doc).

    Parameters
    ----------
    template / min_active / max_active / scale_up_at / scale_down_at:
        Elastic pool knobs (:class:`~repro.serve.ElasticEnginePool`).
    policies / default_policy:
        Tenant admission envelopes
        (:class:`~repro.serve.AdmissionController`).
    cache_capacity / max_batch_size / eject_after / readmit_after:
        Inherited service knobs; the cache doubles as the degradation
        fallback, so disabling it also disables degraded answers.
    edf / degrade:
        A/B switches: ``edf=False`` drains FIFO (v1 order) and
        ``degrade=False`` always serves full precision, late if need
        be.  The PR 8 bench uses both off as the FIFO baseline the
        goodput gate compares against.
    tuner:
        As for :class:`SpectralService`: only each key's storage follows
        the tuned format; the request's block size is kept.
    """

    def __init__(
        self,
        template=("gpu-sim", "cpu-model"),
        *,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
        min_active: int = 1,
        max_active: int = 4,
        scale_up_at: float = 0.8,
        scale_down_at: float = 0.3,
        cache_capacity: int = 128,
        max_batch_size: int | None = None,
        eject_after: int = 1,
        readmit_after: int = 4,
        edf: bool = True,
        degrade: bool = True,
        tuner=None,
    ):
        super().__init__(
            ("numpy",),
            cache_capacity=cache_capacity,
            max_batch_size=max_batch_size,
            eject_after=eject_after,
            readmit_after=readmit_after,
            tuner=tuner,
        )
        # Swap in the v2 scheduler and elastic pool; everything
        # downstream (_serve_batch, cache, reconstruction) is inherited.
        self.pool = ElasticEnginePool(
            template,
            min_active=min_active,
            max_active=max_active,
            scale_up_at=scale_up_at,
            scale_down_at=scale_down_at,
            eject_after=eject_after,
            readmit_after=readmit_after,
        )
        if edf:
            self.scheduler = EdfCoalesceScheduler(max_batch_size=max_batch_size)
        # (not edf keeps the FifoCoalesceScheduler the base class built)
        self.degrade = bool(degrade)
        self.admission = AdmissionController(
            policies, default_policy=default_policy
        )
        self.clock = 0.0
        self._arrivals: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        self._terminal: dict[int, SpectralResponse] = {}
        self._latencies: list[float] = []
        self._window_cost = 0.0
        self._offered = 0
        self._admitted = 0
        self._rejected = 0
        self._cancelled = 0
        self._served = 0
        self._degraded = 0
        self._deadline_misses = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Move the modeled clock forward to ``now`` (monotone)."""
        now = float(now)
        if not math.isfinite(now) or now < 0.0:
            raise ValidationError(
                f"modeled clock must be a non-negative finite number, got {now}"
            )
        self.clock = max(self.clock, now)

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def offer(self, request, *, now: float | None = None):
        """Admit or reject ``request``; returns ``(seq, response | None)``.

        ``now`` advances the modeled clock to the arrival stamp first.
        An admitted request is enqueued for the next :meth:`pump` and
        returns ``(seq, None)``; a denial consumes no budget and
        returns the terminal ``rejected`` response immediately.  The
        sequence number is assigned to *every* offered request —
        admitted or not — so replay order is total.
        """
        if now is not None:
            self._advance(now)
        op, key = self._prepare(request)
        cost = self._price(op, key, request.config)
        decision = self.admission.admit(request.tenant, cost, self.clock)
        if not decision.admitted:
            return self._reject(request, f"admission:{decision.reason}")
        seq = self._take_seq()
        self._admitted += 1
        self._window_cost += cost
        self._pending[seq] = cost
        self.scheduler.enqueue(
            QueuedRequest(seq=seq, request=request, operator=op, key=key)
        )
        return seq, None

    def _take_seq(self) -> int:
        """The next sequence number, counted as one offered request."""
        seq = self._next_seq
        self._next_seq += 1
        self._requests_total += 1
        self._offered += 1
        self._arrivals[seq] = self.clock
        return seq

    def _reject(self, request, reason: str) -> tuple[int, SpectralResponse]:
        """Offer ``request`` as a terminal ``rejected`` response."""
        seq = self._take_seq()
        self._rejected += 1
        response = SpectralResponse.unserved(
            request, outcome="rejected", reason=reason, source="gateway"
        )
        self._terminal[seq] = response
        return seq, response

    def cancel(self, seq: int) -> SpectralResponse | None:
        """Withdraw a queued request; refunds its admission cost.

        Returns the terminal ``cancelled`` response, or ``None`` when
        ``seq`` is not waiting (already dispatched, rejected, or
        unknown) — cancelling served work is a no-op, matching the
        scheduler contract.
        """
        removed = self.scheduler.cancel(seq)
        if removed is None:
            return None
        self.admission.refund(removed.request.tenant, self._pending.pop(seq))
        self._cancelled += 1
        response = SpectralResponse.unserved(
            removed.request,
            outcome="cancelled",
            reason="cancelled before dispatch",
            source="gateway",
        )
        self._terminal[seq] = response
        return response

    # ------------------------------------------------------------------
    # Service entry points a gateway refuses
    # ------------------------------------------------------------------
    # The inherited submit/flush paths would skip pricing, admission and
    # the gateway's counters: a request could be served unpriced, or
    # served without ``_pending`` ever releasing its admitted cost.
    def _refuse(self, name: str) -> NoReturn:
        raise ValidationError(
            f"Gateway.{name}() bypasses admission; use offer() and pump(), "
            "or run_trace()"
        )

    def submit(self, request) -> NoReturn:
        """Refused: queue work through :meth:`offer`."""
        self._refuse("submit")

    def serve(self, requests) -> NoReturn:
        """Refused: use :meth:`offer` and :meth:`pump`, or :meth:`run_trace`."""
        self._refuse("serve")

    def serve_refined(self, requests, **kwargs) -> NoReturn:
        """Refused: use :meth:`offer` and :meth:`pump`, or :meth:`run_trace`."""
        self._refuse("serve_refined")

    def flush(self) -> NoReturn:
        """Refused: drain the queue with :meth:`pump`."""
        self._refuse("flush")

    def flush_refined(self, **kwargs) -> NoReturn:
        """Refused: drain the queue with :meth:`pump`."""
        self._refuse("flush_refined")

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _price(self, operator, key: tuple, config) -> float:
        """Analytic modeled-seconds estimate for one request.

        Priced on the key's affinity engine so repeat workloads are
        billed consistently; engines without the estimator capability
        (and pure host paths) price at zero — unmetered, like v1.  The
        estimate is memoized per operator (see ``OperatorMemo``).
        """
        slots = self.pool.healthy_slots()
        if not slots:
            return 0.0
        slot = slots[self._key_affinity[key] % len(slots)]
        cost = self._estimate(slot, key, operator, config)
        return 0.0 if cost is None else float(cost)

    def _batch_cost(self, batch: Batch) -> float:
        """Projected marginal cost of serving ``batch`` at its target order.

        Extension-aware: when the cache holds a shorter prefix for the
        key, the projection prices only the ``N_cached → N_target``
        resume (difference of the analytic estimates), not a cold run —
        otherwise every extension-eligible batch looks twice as
        expensive as it is and degrades spuriously.
        """
        target = batch.num_moments
        entry = self.cache.entry_at(batch.key)
        if entry is not None and entry.num_moments >= target:
            return 0.0
        head = batch.entries[0]
        config = head.request.config
        if config.num_moments != target:
            config = config.with_updates(num_moments=target)
        cost = self._price(head.operator, batch.key, config)
        if entry is not None and entry.num_moments < target:
            base_config = config.with_updates(num_moments=entry.num_moments)
            already = self._price(head.operator, batch.key, base_config)
            cost = max(0.0, cost - already)
        return cost

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def pump(self) -> dict[int, SpectralResponse]:
        """Drain the queue at the current modeled clock.

        Batches leave earliest-deadline-first; each is either served in
        full (advancing the clock by its modeled cost spread over the
        active engines) or degraded from the cached prefix when the
        projected finish overruns its deadline.  Returns ``{seq:
        response}`` for everything dispatched by this pump.
        """
        responses: dict[int, SpectralResponse] = {}
        forwarded: dict = {}
        with WallTimer() as timer:
            for batch in self.scheduler.drain():
                self._dispatch(batch, responses, forwarded)
        self._wall_seconds += timer.seconds
        return responses

    def _dispatch(self, batch: Batch, responses: dict, forwarded: dict) -> None:
        active = max(1, len(self.pool.healthy_slots()))
        deadline = batch.earliest_deadline
        projected = self.clock + self._batch_cost(batch) / active
        entry = self.cache.entry_at(batch.key)
        before = len(responses)
        if (
            self.degrade
            and math.isfinite(deadline)
            and projected > deadline
            and entry is not None
            and entry.num_moments < batch.num_moments
        ):
            # The prefix is bit-identical to the leading moments of the
            # full answer (prefix closure): a degraded response is the
            # honest truncation of the result, delivered before the
            # deadline instead of after it.
            reason = (
                f"deadline: projected finish {projected:.3f}s exceeds "
                f"deadline {deadline:.3f}s; served cached "
                f"N={entry.num_moments} prefix"
            )
            self._batches_total += 1
            self._coalesced_requests += batch.size - 1
            answers = self._answer(
                batch, entry, "cache", 0.0,
                final=False, outcome="degraded", reason=reason,
            )
            responses.update(answers)
            self._responses_total += len(answers)
        else:
            mark = self._modeled_served
            self._serve_batch(batch, responses, forwarded)
            self._advance(self.clock + (self._modeled_served - mark) / active)
        for seq in list(responses)[before:]:
            response = responses[seq]
            cost = self._pending.pop(seq, 0.0)
            if response.outcome == "rejected":
                # A request-side error: nothing was served, so nothing
                # is charged.
                self.admission.refund(response.tenant, cost)
                self._rejected += 1
                continue
            if response.outcome == "degraded":
                self._degraded += 1
            else:
                self._served += 1
            # An answer counts as on-time goodput only when the member's
            # own deadline still holds.
            if response.deadline is not None and self.clock > response.deadline:
                response.deadline_missed = True
                self._deadline_misses += 1
            arrived = self._arrivals.get(seq)
            if arrived is not None:
                self._latencies.append(self.clock - arrived)

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def run_trace(
        self, arrivals, *, flush_interval: float = 1.0
    ) -> list[SpectralResponse]:
        """Replay a timed trace; responses come back in offer order.

        Arrivals (ascending :attr:`~repro.serve.TimedArrival.at`) are
        offered as the modeled clock reaches them; every
        ``flush_interval`` modeled seconds the pool is rebalanced
        against the window's admitted demand rate and the queue is
        pumped.  The returned list covers every offered request —
        served, degraded, rejected, and cancelled alike.  An arrival
        whose :meth:`offer` raises a request-side error (a malformed
        operator, say) is answered ``rejected`` with reason
        ``invalid: <message>`` and the replay goes on; a member of a
        batch whose moments fail on a request-side error is answered
        ``rejected`` (``error: <message>``) and its admission cost
        refunded.
        """
        flush_interval = check_positive_float(flush_interval, "flush_interval")
        arrivals = list(arrivals)
        for arrival in arrivals:
            if not isinstance(arrival, TimedArrival):
                raise ValidationError(
                    "run_trace expects TimedArrival items, got "
                    f"{type(arrival).__name__}"
                )
        results: dict[int, SpectralResponse] = {}
        boundary = self.clock + flush_interval
        last = self.clock
        for arrival in arrivals:
            if arrival.at < last:
                raise ValidationError(
                    f"arrivals must be ascending: {arrival.at} < {last}"
                )
            last = arrival.at
            while arrival.at >= boundary:
                self._advance(boundary)
                self._close_window(flush_interval, results)
                boundary += flush_interval
            try:
                seq, rejected = self.offer(arrival.request, now=arrival.at)
            except ReproError as exc:
                if isinstance(exc, DeviceError):
                    raise
                seq, rejected = self._reject(arrival.request, f"invalid: {exc}")
            if rejected is not None:
                results[seq] = rejected
        self._close_window(flush_interval, results)
        results.update(self._terminal)
        self._terminal = {}
        return [results[seq] for seq in sorted(results)]

    def _close_window(self, flush_interval: float, results: dict) -> None:
        self.pool.rebalance(self._window_cost / flush_interval)
        self._window_cost = 0.0
        results.update(self.pump())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def gateway_metrics(self) -> GatewayMetrics:
        """Snapshot of the serving-quality counters (see class docs)."""
        latencies = sorted(self._latencies)
        # Goodput = answers delivered before their deadline: full-
        # precision serves plus degraded prefixes, minus every late one.
        on_time = self._served + self._degraded - self._deadline_misses
        offered = max(1, self._offered)
        return GatewayMetrics(
            offered=self._offered,
            admitted=self._admitted,
            rejected=self._rejected,
            cancelled=self._cancelled,
            served=self._served,
            degraded=self._degraded,
            deadline_misses=self._deadline_misses,
            clock_seconds=self.clock,
            p50_latency_seconds=_nearest_rank(latencies, 50.0),
            p99_latency_seconds=_nearest_rank(latencies, 99.0),
            goodput_ratio=on_time / offered,
            degraded_ratio=self._degraded / offered,
            active_engines=self.pool.active,
            peak_active_engines=self.pool.peak_active,
            scale_ups=self.pool.scale_ups,
            scale_downs=self.pool.scale_downs,
            per_tenant=self.admission.counters(),
        )
