"""The spectral service: batching + caching front-end over the engines.

``SpectralService`` is the production-facing entry point the ROADMAP's
heavy-traffic north star asks for.  Requests are admitted (operator
validation + fingerprinting) at :meth:`~SpectralService.submit`,
coalesced by the deterministic FIFO scheduler at
:meth:`~SpectralService.flush`, and served from — in order — the prefix
moment cache (``N' <= N_cached`` is a hit served as a slice), a
flush-local forward table (split siblings when the cache is disabled),
an in-place *extension* of a cached prefix (the engine resumes the
three-term recursion from its checkpoint instead of replaying from
``mu_0``), or one cold engine run per compatible group.  Batches are
keyed on :func:`repro.serve.moment_identity_key` — the truncation order
is *not* part of the key, so mixed-``N`` repeats of one workload share a
single recursion.  Reconstruction (kernel damping, energy grid, Green's
phases) is always performed per-request at the request's own order, so
requests that share moments may still differ in kernel, grid, and ``N``.

:meth:`~SpectralService.flush_refined` adds progressive refinement: a
batch whose key holds a cached low-``N`` prefix is answered immediately
from the slice, then refined tiers are streamed (``on_tier``) as the
moments extend, stopping early when
:func:`repro.kpm.incremental.moment_convergence_estimate` drops below
the tolerance.

Determinism contract: with the same request trace, pool, and knobs, the
service produces bit-identical responses — and each response (cached
slice, extended, refined tier, or computed) is bit-identical to a fresh
:func:`repro.kpm.compute_dos` call at its ``num_moments_served`` on the
same backend (each LDoS response to :func:`repro.kpm.local_dos`).  The
property suite pins both.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceError, ValidationError
from repro.kpm.dos import validate_spectral_operator
from repro.kpm.engines import ResumableMomentEngine
from repro.kpm.green import greens_function
from repro.kpm.incremental import moment_convergence_estimate
from repro.kpm.moments import MomentData, extend_recursion, moments_resumable
from repro.kpm.reconstruct import dos_from_moments
from repro.kpm.rescale import rescale_operator
from repro.trace.tracer import current_tracer
from repro.serve.cache import CacheEntry, MomentCache
from repro.serve.health import EnginePool, EngineSlot
from repro.serve.metrics import ServiceMetrics
from repro.serve.requests import (
    DoSRequest,
    GreenRequest,
    LDoSRequest,
    SpectralResponse,
    moment_identity_key,
)
from repro.serve.scheduler import Batch, FifoCoalesceScheduler, QueuedRequest
from repro.sparse import as_operator
from repro.timing import WallTimer

__all__ = ["OperatorFacts", "OperatorMemo", "SpectralService"]

_REQUEST_TYPES = (DoSRequest, LDoSRequest, GreenRequest)

#: Engine label of host-side (non-pooled) LDoS moment computations.
HOST_ENGINE = "host"


@dataclass
class OperatorFacts:
    """What the service has derived from one operator's content.

    Attributes
    ----------
    validated:
        The operator passed :func:`~repro.kpm.dos.validate_spectral_operator`.
        Only successes are recorded: a rejected operator is validated
        again on every submission.
    scaled:
        ``moment_identity_key -> (scaled operator, rescaling)``.  The
        rescaled (and, with a tuner, re-stored) operator every compute,
        extension and price of that key runs on.
    prices:
        Analytic modeled seconds.  ``(slot name, identity key, config)``
        holds an engine's ``estimate_modeled_seconds``; ``(engine name,
        identity key, num_moments)`` holds the naive cost the service
        accrued for that order (see ``SpectralService._naive_cost``).
    """

    validated: bool = False
    scaled: dict = field(default_factory=dict)
    prices: dict = field(default_factory=dict)


class OperatorMemo:
    """Bounded LRU of :class:`OperatorFacts`, keyed by content fingerprint.

    The key is the operator's ``fingerprint()`` — a hash of its stored
    content, recomputed on every submission — never its identity, so an
    operator mutated in place is a new entry.  At most ``capacity``
    operators are held; an evicted operator's facts are derived again
    on its next use.  Validation, rescaling and estimates come out the
    same.  Two facts depend on when they are derived: with a tuner, the
    tuned storage follows the order of the request that derives it
    (moments are identical in every format), and a naive cost that fell
    back to an entry's invested cost is taken from the entry served then.
    """

    def __init__(self, capacity: int):
        self.capacity = max(int(capacity), 1)
        self._facts: OrderedDict[str, OperatorFacts] = OrderedDict()

    def __len__(self) -> int:
        return len(self._facts)

    def items(self):
        """``(fingerprint, facts)`` pairs, least recently used first."""
        return self._facts.items()

    def get(self, fingerprint: str) -> OperatorFacts | None:
        """The facts held for ``fingerprint`` (now most recently used), if any."""
        facts = self._facts.get(fingerprint)
        if facts is not None:
            self._facts.move_to_end(fingerprint)
        return facts

    def facts(self, fingerprint: str) -> OperatorFacts:
        """The facts for ``fingerprint``; a miss adds them, evicting the LRU."""
        facts = self.get(fingerprint)
        if facts is None:
            facts = self._facts[fingerprint] = OperatorFacts()
            if len(self._facts) > self.capacity:
                self._facts.popitem(last=False)
        return facts


class SpectralService:
    """Batching, caching, health-tracked spectral request server.

    Parameters
    ----------
    backends:
        Engine pool: registry names and/or
        :class:`~repro.kpm.engines.MomentEngine` instances.
    cache_capacity:
        Prefix moment-cache entries (``0`` disables caching; split
        siblings are then served through the flush-local forward table
        instead of silently recomputing).  The per-operator
        :class:`OperatorMemo` holds ``max(cache_capacity, 1)`` operators.
    prefix_cache:
        ``False`` restores the PR 3 exact-order cache matching (A/B
        comparison knob; prefix hits and extensions are disabled).
    max_batch_size:
        Largest coalesced batch (``None`` = unbounded).
    eject_after:
        Taxonomy failures before an engine is ejected from rotation.
    readmit_after:
        Dispatches an ejected engine sits out before probation.
    tuner:
        Optional :class:`repro.tune.Autotuner` (duck-typed — anything
        with ``choose``/``prepare_operator``).  When set, each key's
        scaled operator is converted once to the tuned storage format at
        rescale time, so every engine run, LDoS recursion, and admission
        price executes/prices that format.  Numerics are unchanged: all
        formats run the canonical contraction order.
    """

    def __init__(
        self,
        backends=("numpy",),
        *,
        cache_capacity: int = 128,
        prefix_cache: bool = True,
        max_batch_size: int | None = None,
        eject_after: int = 1,
        readmit_after: int = 4,
        tuner=None,
    ):
        self.pool = EnginePool(
            backends, eject_after=eject_after, readmit_after=readmit_after
        )
        self.tuner = tuner
        self.cache = MomentCache(cache_capacity, prefix=prefix_cache)
        self.scheduler = FifoCoalesceScheduler(max_batch_size=max_batch_size)
        self.memo = OperatorMemo(cache_capacity)
        #: Unbounded on purpose: a few hundred bytes per key, and the
        #: key->engine map must stay a pure function of the offered trace.
        self._key_affinity: dict[tuple, int] = {}
        self._next_seq = 0
        self._requests_total = 0
        self._responses_total = 0
        self._batches_total = 0
        self._coalesced_requests = 0
        self._forwards = 0
        self._extensions = 0
        self._refined_tiers = 0
        self._early_stops = 0
        self._modeled_served = 0.0
        self._modeled_naive = 0.0
        self._wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _prepare(self, request) -> tuple:
        """Validate ``request`` and derive its coalescing identity.

        Returns ``(operator, key)`` and registers the key's engine
        affinity on first appearance.  Shared by :meth:`submit` and the
        gateway front door, which runs admission *between* preparation
        and enqueue — affinity registration stays pre-admission so the
        key→engine map is a pure function of the offered trace,
        independent of admission outcomes.

        The operator is coerced and fingerprinted first; it is validated
        only when the memo holds no success for that content.
        """
        if not isinstance(request, _REQUEST_TYPES):
            raise ValidationError(
                "request must be a DoSRequest, LDoSRequest, or GreenRequest; "
                f"got {type(request).__name__}"
            )
        op = as_operator(request.hamiltonian)
        fingerprint_method = getattr(op, "fingerprint", None)
        if fingerprint_method is None:
            # A defective matrix is reported before the missing hash.
            validate_spectral_operator(op)
            raise ValidationError(
                f"operator {type(op).__name__} does not expose fingerprint(); "
                "the service needs a stable content hash for coalescing and "
                "caching (CSRMatrix/COOMatrix/DenseOperator all provide one)"
            )
        fingerprint = fingerprint_method()
        facts = self.memo.get(fingerprint)
        if facts is None or not facts.validated:
            validate_spectral_operator(op)
            self.memo.facts(fingerprint).validated = True
        site = None
        if isinstance(request, LDoSRequest):
            site = request.site
            if site >= op.shape[0]:
                raise ValidationError(
                    f"site {site} out of range for dimension {op.shape[0]}"
                )
        key = (fingerprint, moment_identity_key(request.config, site=site))
        if key not in self._key_affinity:
            self._key_affinity[key] = len(self._key_affinity)
        return op, key

    def submit(self, request) -> int:
        """Admit ``request`` into the queue; return its sequence number.

        Validation (operator symmetry, site bounds, fingerprint
        availability) happens here so :meth:`flush` only sees well-formed
        work.  The queue key is the *identity* key — truncation order
        excluded — so mixed-``N`` requests coalesce.
        """
        op, key = self._prepare(request)
        seq = self._next_seq
        self._next_seq += 1
        self._requests_total += 1
        self.scheduler.enqueue(
            QueuedRequest(seq=seq, request=request, operator=op, key=key)
        )
        return seq

    def serve(self, requests) -> list[SpectralResponse]:
        """Submit every request, then :meth:`flush` — the one-shot API."""
        for request in requests:
            self.submit(request)
        return self.flush()

    def serve_refined(
        self, requests, *, tolerance=None, growth=2.0, on_tier=None
    ) -> list[SpectralResponse]:
        """Submit every request, then :meth:`flush_refined`."""
        for request in requests:
            self.submit(request)
        return self.flush_refined(
            tolerance=tolerance, growth=growth, on_tier=on_tier
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def flush(self) -> list[SpectralResponse]:
        """Drain the queue; responses are returned in submission order."""
        tracer = current_tracer()
        with WallTimer() as timer:
            with tracer.span(
                "serve.flush", category="serve", queue_depth=self.scheduler.depth
            ) as flush_span:
                responses: dict[int, SpectralResponse] = {}
                forwarded: dict[tuple, CacheEntry] = {}
                batches = self.scheduler.drain()
                flush_span.set(batches=len(batches))
                for batch in batches:
                    self._serve_batch(batch, responses, forwarded)
        self._wall_seconds += timer.seconds
        return [responses[seq] for seq in sorted(responses)]

    def flush_refined(
        self, *, tolerance=None, growth=2.0, on_tier=None
    ) -> list[SpectralResponse]:
        """Drain the queue with progressive refinement.

        A batch whose key holds a cached low-``N`` prefix is answered
        immediately from the slice (tier 0), then refined: the moments
        are extended by ``growth`` per tier (in-place resume when the
        entry carries a recursion checkpoint) until the batch's target
        order is reached or — when ``tolerance`` is set — the
        convergence estimate drops below it (an *early stop*; the final
        answer is then served at the converged order, bit-identical to
        a one-shot run at that order).  Intermediate tiers are streamed
        to ``on_tier`` as lists of non-final responses; the returned
        list holds only final responses in submission order.  Batches
        with no cached prefix are served exactly like :meth:`flush`.
        """
        if tolerance is not None:
            tolerance = float(tolerance)
            if not math.isfinite(tolerance) or tolerance <= 0.0:
                raise ValidationError(
                    f"tolerance must be a positive finite number, got {tolerance}"
                )
        growth = float(growth)
        if not math.isfinite(growth) or growth <= 1.0:
            raise ValidationError(f"growth must exceed 1.0, got {growth}")
        tracer = current_tracer()
        with WallTimer() as timer:
            with tracer.span(
                "serve.flush",
                category="serve",
                queue_depth=self.scheduler.depth,
                refined=True,
            ) as flush_span:
                responses: dict[int, SpectralResponse] = {}
                forwarded: dict[tuple, CacheEntry] = {}
                batches = self.scheduler.drain()
                flush_span.set(batches=len(batches))
                for batch in batches:
                    self._serve_batch(
                        batch,
                        responses,
                        forwarded,
                        refine=(tolerance, growth, on_tier),
                    )
        self._wall_seconds += timer.seconds
        return [responses[seq] for seq in sorted(responses)]

    def _serve_batch(
        self, batch: Batch, responses: dict, forwarded: dict, refine=None
    ) -> None:
        tracer = current_tracer()
        head = batch.entries[0]
        with tracer.span(
            "serve.batch",
            category="serve",
            batch_id=batch.batch_id,
            size=batch.size,
            coalesced=batch.size - 1,
            queue_wait=self._next_seq - 1 - head.seq,
        ) as batch_span:
            if refine is not None:
                stored = self.cache.entry_at(batch.key)
                if stored is not None and stored.num_moments < batch.num_moments:
                    self._serve_batch_refined(
                        batch, responses, forwarded, batch_span, *refine
                    )
                    return
            self._serve_batch_inner(batch, responses, batch_span, forwarded)

    def _serve_batch_inner(
        self, batch: Batch, responses: dict, batch_span, forwarded: dict
    ) -> None:
        target_n = batch.num_moments
        marginal = None
        entry = self.cache.get(batch.key, num_moments=target_n)
        mode = "hit"
        if entry is None:
            fwd = forwarded.get(batch.key)
            if fwd is not None and fwd.num_moments >= target_n:
                # Cache disabled (or the entry was evicted mid-flush):
                # a sibling batch in this flush already computed these
                # moments — forward them instead of recomputing.
                entry = fwd.prefix(target_n)
                mode = "forward"
                self._forwards += 1
            else:
                base = self.cache.peek_extendable(batch.key, target_n)
                if base is not None:
                    extended = self._extend_entry(batch, base, target_n)
                    if extended is not None:
                        entry, marginal = extended
                        mode = "extend"
                        self._extensions += 1
                        self.cache.put(batch.key, entry, extended=True)
                if entry is None:
                    entry = self._compute_entry(batch, target_n)
                    mode = "compute"
                    marginal = entry.modeled_seconds
                    self.cache.put(batch.key, entry)
                forwarded[batch.key] = entry
                if marginal is not None:
                    self._modeled_served += marginal
        batch_span.set(cache=mode, engine=entry.engine, num_moments=target_n)
        self._account_naive(batch, entry)
        self._batches_total += 1
        self._coalesced_requests += batch.size - 1
        for index, queued in enumerate(batch.entries):
            if mode in ("hit", "forward"):
                source = "cache" if mode == "hit" else "forwarded"
                cost = 0.0 if entry.modeled_seconds is not None else None
            elif mode == "extend":
                source = "extended" if index == 0 else "coalesced"
                cost = marginal
            else:
                source = "computed" if index == 0 else "coalesced"
                cost = entry.modeled_seconds
            member_n = queued.request.config.num_moments
            responses[queued.seq] = self._reconstruct(
                queued.request, entry.prefix(member_n), source=source,
                batch_id=batch.batch_id, modeled_seconds=cost,
            )
            self._responses_total += 1

    def _serve_batch_refined(
        self, batch: Batch, responses: dict, forwarded: dict,
        batch_span, tolerance, growth, on_tier,
    ) -> None:
        """Tiered serving: immediate prefix answer, then streamed refinement."""
        target = batch.num_moments
        entry = self.cache.get(batch.key)  # counted as a hit; full entry
        n = entry.num_moments
        tier = 0
        source = "cache"
        cost = 0.0 if entry.modeled_seconds is not None else None
        self._account_naive(batch, entry)
        self._batches_total += 1
        self._coalesced_requests += batch.size - 1
        while True:
            converged = tolerance is not None and (
                self._convergence_estimate(entry) <= tolerance
            )
            final = n >= target or converged
            tier_responses = []
            for queued in batch.entries:
                member_n = min(queued.request.config.num_moments, n)
                tier_responses.append(
                    (
                        queued.seq,
                        self._reconstruct(
                            queued.request,
                            entry.prefix(member_n),
                            source=source,
                            batch_id=batch.batch_id,
                            modeled_seconds=cost,
                            tier=tier,
                            final=final,
                        ),
                    )
                )
            if final:
                if converged and n < target:
                    self._early_stops += 1
                for seq, response in tier_responses:
                    responses[seq] = response
                    self._responses_total += 1
                batch_span.set(
                    cache="refined",
                    engine=entry.engine,
                    num_moments=n,
                    tiers=tier,
                    early_stop=bool(converged and n < target),
                )
                return
            if on_tier is not None:
                on_tier([response for _, response in tier_responses])
            next_n = min(target, max(n + 1, math.ceil(n * growth)))
            base = self.cache.peek_extendable(batch.key, next_n)
            extended = (
                self._extend_entry(batch, base, next_n)
                if base is not None
                else None
            )
            if extended is not None:
                entry, cost = extended
                source = "extended"
                self._extensions += 1
                self.cache.put(batch.key, entry, extended=True)
            else:
                entry = self._compute_entry(batch, next_n)
                cost = entry.modeled_seconds
                source = "computed"
                self.cache.put(batch.key, entry)
            forwarded[batch.key] = entry
            if cost is not None:
                self._modeled_served += cost
            self._refined_tiers += 1
            tier += 1
            n = next_n

    # ------------------------------------------------------------------
    # Moment production
    # ------------------------------------------------------------------
    def _scaled_for_key(self, key: tuple, operator, config) -> tuple:
        """The (scaled, rescaling) pair for ``key``, memoized.

        Rescaling is a deterministic function of the operator and the
        bounds options — both part of the key — so one rescale serves
        every compute, extension, naive-cost estimate, and gateway
        admission price for the key.
        """
        scaled_by_identity = self.memo.facts(key[0]).scaled
        cached = scaled_by_identity.get(key[1])
        if cached is None:
            scaled, rescaling = rescale_operator(
                operator, method=config.bounds_method, epsilon=config.epsilon
            )
            if self.tuner is not None:
                # Convert once to the tuned storage: engines and the
                # LDoS host recursion then execute (and admission prices)
                # that format for every request sharing the key.
                choice = self.tuner.choose(scaled, config)
                scaled = self.tuner.prepare_operator(scaled, choice)
            cached = scaled_by_identity[key[1]] = (scaled, rescaling)
        return cached

    def _scaled_for(self, batch: Batch) -> tuple:
        """The (scaled, rescaling) pair for the batch's key, memoized."""
        head = batch.entries[0]
        return self._scaled_for_key(batch.key, head.operator, head.request.config)

    def _compute_entry(self, batch: Batch, target_n: int) -> CacheEntry:
        head = batch.entries[0]
        config = head.request.config
        if config.num_moments != target_n:
            config = config.with_updates(num_moments=target_n)
        scaled, rescaling = self._scaled_for(batch)
        if isinstance(head.request, LDoSRequest):
            # Deterministic single-vector moments: the same host path as
            # repro.kpm.local_dos, bit-identical by construction.  The
            # checkpoint lets later batches extend in place.
            start = np.zeros(head.operator.shape[0], dtype=np.float64)
            start[head.request.site] = 1.0
            mu, checkpoint = moments_resumable(
                scaled, start, target_n, use_doubling=config.use_doubling
            )
            return CacheEntry(
                moments=mu,
                rescaling=rescaling,
                engine=HOST_ENGINE,
                modeled_seconds=None,
                state=checkpoint if self.cache.capacity > 0 else None,
            )
        affinity = self._key_affinity[batch.key]
        tracer = current_tracer()
        tried: list = []
        while True:
            slot = self.pool.select(affinity, excluding=tried)
            # Capture a recursion checkpoint only when there is a cache
            # to keep it in — the capture download is not free.
            resumable = (
                self.cache.capacity > 0
                and self.cache.prefix
                and isinstance(slot.engine, ResumableMomentEngine)
            )
            try:
                clock_mark = getattr(tracer, "clock", 0.0)
                state = None
                if resumable:
                    data, report, state = slot.engine.compute_moments_resumable(
                        scaled, config
                    )
                else:
                    data, report = slot.engine.compute_moments(scaled, config)
                if (
                    report.modeled_seconds is not None
                    and getattr(tracer, "clock", 0.0) == clock_mark
                ):
                    # Uninstrumented engines (e.g. the cost-model backend)
                    # still put their modeled total on the trace clock.
                    tracer.advance(report.modeled_seconds)
            except DeviceError:
                # The fault taxonomy marks this an engine-side failure:
                # strike the slot and retry the batch on the next healthy
                # engine.  Request-side errors (ValidationError etc.)
                # propagate to the caller instead.
                self.pool.report_failure(slot)
                tried.append(slot)
                continue
            self.pool.report_success(slot, report.modeled_seconds)
            return CacheEntry(
                moments=data,
                rescaling=rescaling,
                engine=slot.name,
                modeled_seconds=report.modeled_seconds,
                state=state,
            )

    def _extend_entry(
        self, batch: Batch, base: CacheEntry, target_n: int
    ) -> tuple[CacheEntry, float | None] | None:
        """Resume ``base``'s recursion up to ``target_n``.

        Returns ``(entry, marginal_seconds)`` on success, ``None`` when
        the producing engine is gone, not resumable, or fails with a
        taxonomy error — the caller then falls back to a cold compute.
        The extension runs on the *same* engine that produced the base
        entry, so the extended table is bit-identical to that engine's
        cold run at ``target_n``.
        """
        head = batch.entries[0]
        config = head.request.config
        if config.num_moments != target_n:
            config = config.with_updates(num_moments=target_n)
        scaled, rescaling = self._scaled_for(batch)
        if base.engine == HOST_ENGINE:
            segment, checkpoint = extend_recursion(scaled, base.state, target_n)
            mu = np.concatenate([base.moments, segment])
            return (
                CacheEntry(
                    moments=mu,
                    rescaling=rescaling,
                    engine=HOST_ENGINE,
                    modeled_seconds=None,
                    state=checkpoint,
                ),
                None,
            )
        slot = self._slot_for_engine(base.engine)
        if slot is None or not isinstance(slot.engine, ResumableMomentEngine):
            return None
        tracer = current_tracer()
        try:
            clock_mark = getattr(tracer, "clock", 0.0)
            data, report, state = slot.engine.extend_moments(
                scaled, config, base.moments, base.state
            )
            if (
                report.modeled_seconds is not None
                and getattr(tracer, "clock", 0.0) == clock_mark
            ):
                tracer.advance(report.modeled_seconds)
        except DeviceError:
            self.pool.report_failure(slot)
            return None
        self.pool.report_success(slot, report.modeled_seconds)
        invested = None
        if base.modeled_seconds is not None or report.modeled_seconds is not None:
            invested = (base.modeled_seconds or 0.0) + (
                report.modeled_seconds or 0.0
            )
        return (
            CacheEntry(
                moments=data,
                rescaling=rescaling,
                engine=slot.name,
                modeled_seconds=invested,
                state=state,
            ),
            report.modeled_seconds,
        )

    def _slot_for_engine(self, name: str) -> EngineSlot | None:
        """The healthy pool slot with ``name``, if any."""
        for slot in self.pool.healthy_slots():
            if slot.name == name:
                return slot
        return None

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _account_naive(self, batch: Batch, entry: CacheEntry) -> None:
        """Accrue what the batch would have cost without the service.

        One engine run *per request at its own order* — the
        pre-:mod:`repro.serve` workflow.  Engines exposing the analytic
        ``estimate_modeled_seconds`` capability are priced exactly;
        others fall back to the entry's invested cost per member.
        """
        for queued in batch.entries:
            cost = self._naive_cost(batch, entry, queued.request.config.num_moments)
            if cost is not None:
                self._modeled_naive += cost

    def _naive_cost(
        self, batch: Batch, entry: CacheEntry, num_moments: int
    ) -> float | None:
        """The naive cost of one member at ``num_moments``, fixed per order.

        The first value accrued for (key, order, engine) is kept while
        the operator stays in the memo: the producing engine's estimate,
        or — when that engine has no estimator or has left rotation —
        the entry's invested cost.
        """
        if entry.engine == HOST_ENGINE:
            return None
        prices = self.memo.facts(batch.key[0]).prices
        naive_key = (entry.engine, batch.key[1], num_moments)
        if naive_key not in prices:
            slot = self._slot_for_engine(entry.engine)
            head = batch.entries[0]
            config = head.request.config
            if config.num_moments != num_moments:
                config = config.with_updates(num_moments=num_moments)
            cost = (
                self._estimate(slot, batch.key, head.operator, config)
                if slot is not None
                else None
            )
            prices[naive_key] = entry.modeled_seconds if cost is None else cost
        return prices[naive_key]

    def _estimate(self, slot: EngineSlot, key: tuple, operator, config):
        """``slot``'s analytic estimate for ``key`` at ``config``, memoized.

        ``None`` when the engine has no ``estimate_modeled_seconds``.  The
        price is keyed by the full config: LDoS identity keys omit fields
        the estimator reads (``R``, ``S``, ``block_size``, ``precision``).
        """
        estimate = getattr(slot.engine, "estimate_modeled_seconds", None)
        if estimate is None:
            return None
        prices = self.memo.facts(key[0]).prices
        price_key = (slot.name, key[1], config)
        cost = prices.get(price_key)
        if cost is None:
            scaled, _ = self._scaled_for_key(key, operator, config)
            cost = prices[price_key] = estimate(scaled, config)
        return cost

    def _convergence_estimate(self, entry: CacheEntry) -> float:
        moments = entry.moments
        if isinstance(moments, MomentData):
            return moment_convergence_estimate(moments)
        tail = moments[-max(1, len(moments) // 4) :]
        return float(np.sqrt(np.mean(np.square(tail))))

    # ------------------------------------------------------------------
    # Reconstruction (always per-request)
    # ------------------------------------------------------------------
    def _reconstruct(
        self, request, entry: CacheEntry, *, source, batch_id, modeled_seconds,
        tier: int = 0, final: bool = True, outcome: str = "served",
        reason: str = "", deadline_missed: bool = False,
    ) -> SpectralResponse:
        config = request.config
        if isinstance(request, GreenRequest):
            energies = np.asarray(request.energies, dtype=np.float64)
            values = greens_function(
                entry.moments, entry.rescaling, energies, kernel=request.kernel
            )
        else:
            energies, values = dos_from_moments(
                entry.moments,
                entry.rescaling,
                kernel=config.kernel,
                num_points=config.num_energy_points,
            )
        return SpectralResponse(
            kind=request.kind,
            tag=request.tag,
            energies=energies,
            values=values,
            moments=entry.moments,
            rescaling=entry.rescaling,
            config=config,
            source=source,
            engine=entry.engine,
            batch_id=batch_id,
            modeled_seconds=modeled_seconds,
            num_moments_served=entry.num_moments,
            tier=tier,
            final=final,
            outcome=outcome,
            reason=reason,
            tenant=request.tenant,
            deadline=request.deadline,
            deadline_missed=deadline_missed,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Snapshot of every counter (see :class:`ServiceMetrics`)."""
        stats = self.pool.stats
        return ServiceMetrics(
            requests_total=self._requests_total,
            responses_total=self._responses_total,
            batches_total=self._batches_total,
            coalesced_requests=self._coalesced_requests,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_prefix_hits=self.cache.prefix_hits,
            cache_extensions=self._extensions,
            cache_forwards=self._forwards,
            refined_tiers=self._refined_tiers,
            early_stops=self._early_stops,
            cache_size=len(self.cache),
            queue_peak_depth=self.scheduler.peak_depth,
            engine_dispatches=stats.dispatches,
            engine_failures=stats.failures,
            engine_ejections=stats.ejections,
            engine_readmissions=stats.readmissions,
            modeled_served_seconds=self._modeled_served,
            modeled_naive_seconds=self._modeled_naive,
            wall_seconds=self._wall_seconds,
            modeled_seconds_by_engine=dict(stats.modeled_seconds_by_engine),
        )

    def timing_report(self):
        """Shortcut for ``self.metrics().timing_report()``."""
        return self.metrics().timing_report()
