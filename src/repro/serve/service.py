"""The spectral service: batching + caching front-end over the engines.

``SpectralService`` is the production-facing entry point the ROADMAP's
heavy-traffic north star asks for.  Requests are admitted (operator
validation + fingerprinting) at :meth:`~SpectralService.submit`,
coalesced by the deterministic FIFO scheduler at
:meth:`~SpectralService.flush`, and served from — in order — the prefix
moment cache (``N' <= N_cached`` is a hit served as a slice), a
flush-local forward table (split siblings when the cache is disabled),
an in-place *extension* of a cached prefix (the engine resumes the
three-term recursion from the entry's state instead of replaying from
``mu_0``), or one cold engine run per compatible group.  Batches are
keyed on :func:`repro.serve.moment_identity_key` — the truncation order
is *not* part of the key, so mixed-``N`` repeats of one workload share a
single recursion.  Reconstruction (kernel damping, energy grid, Green's
phases) happens at each request's own order, so requests that share
moments may still differ in kernel, grid, and ``N``; requests with equal
inputs (batch key, producing engine, order, kind, kernel and grid) share
one reconstruction, whose read-only ``energies``/``values`` arrays every
such response holds.  The operator is rescaled once per content and
bounds options, whatever requests it serves.

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

from repro.errors import DeviceError, ReproError, ValidationError
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
from repro.sparse import CSRMatrix, ELLMatrix, as_format, as_operator
from repro.timing import WallTimer

__all__ = ["OperatorFacts", "OperatorMemo", "SpectralService"]

_REQUEST_TYPES = (DoSRequest, LDoSRequest, GreenRequest)

#: Engine label of host-side (non-pooled) LDoS moment computations.
HOST_ENGINE = "host"


def _rejected(request, batch: Batch, exc: ReproError) -> SpectralResponse:
    """The ``rejected`` answer to a request-side error in ``batch``."""
    return SpectralResponse.unserved(
        request, outcome="rejected", reason=f"error: {exc}", source="service",
        batch_id=batch.batch_id,
    )


@dataclass
class OperatorFacts:
    """What the service has derived from one operator's content.

    Attributes
    ----------
    validated:
        The operator passed :func:`~repro.kpm.dos.validate_spectral_operator`.
        Only successes are recorded: a rejected operator is validated
        again on every submission.
    rescaled:
        ``(bounds_method, epsilon) -> (scaled operator, rescaling)``: the
        one :func:`~repro.kpm.rescale_operator` result that DoS, Green
        and every LDoS site of the operator share under those options.
    sparse:
        ``(bounds_method, epsilon) -> scaled operator`` in CSR or ELL
        storage, the one copy a tuner profiles and re-stores for every key.
    tuned:
        ``(bounds_method, epsilon, format) -> scaled operator``, the one
        copy of every key tuned to that format.
    scaled:
        ``moment_identity_key -> (scaled operator, rescaling)``.  The
        operator every compute, extension and price of that key runs
        on: the shared ``rescaled`` pair, or with a tuner its ``tuned``
        copy.
    prices:
        Analytic modeled seconds.  ``(slot name, identity key, config)``
        holds an engine's ``estimate_modeled_seconds`` (an LDoS key
        without its site, plus the storage priced); ``(engine name,
        identity key, num_moments)`` holds the naive cost the service
        accrued for that order (see ``SpectralService._naive_cost``).
    """

    validated: bool = False
    rescaled: dict = field(default_factory=dict)
    sparse: dict = field(default_factory=dict)
    tuned: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    prices: dict = field(default_factory=dict)


class OperatorMemo:
    """Bounded LRU of :class:`OperatorFacts`, keyed by content fingerprint.

    The key is the operator's ``fingerprint()`` — a hash of its stored
    content, recomputed on every submission — never its identity, so an
    operator mutated in place is a new entry.  At most ``capacity``
    operators are held; an evicted operator's facts are derived again
    on its next use.  Validation, rescaling and estimates come out the
    same: one rescale per (fingerprint, bounds method, epsilon), whatever
    identity keys use it.  Two facts depend on when they are derived:
    with a tuner, the tuned storage follows the order of the request
    that derives it (moments are identical in every format), and a naive
    cost that fell back to an entry's invested cost is taken from the
    entry served then.
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
        :class:`OperatorMemo` holds ``max(cache_capacity, 1)`` operators,
        and the reconstruction memo as many ``(energies, values)`` pairs.
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
        scaled operator is re-stored once in the tuned format at rescale
        time; that storage is all the service applies.  Engines keep the
        request's block size, and a ``csr-vector`` choice is stored and
        priced as scalar CSR, so a gpu-sim engine may model more time
        than ``GpuKPM(tuner=...)``.  Numerics are unchanged: all formats
        run the canonical contraction order.
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
        #: LRU of read-only ``(energies, values)``, keyed in
        #: :meth:`_reconstruction`; at most ``self.memo.capacity`` pairs.
        self._reconstructions: OrderedDict[tuple, tuple] = OrderedDict()
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
        return self._drain()

    def flush_refined(
        self, *, tolerance=None, growth=2.0, on_tier=None
    ) -> list[SpectralResponse]:
        """Drain the queue with progressive refinement.

        A batch whose key holds a cached low-``N`` prefix is answered
        immediately from the slice (tier 0), then refined: the moments
        are extended by ``growth`` per tier (in-place resume when the
        entry carries a recursion state) until the batch's target
        order is reached or — when ``tolerance`` is set — the
        convergence estimate drops below it (an *early stop*; the final
        answer is then served at the converged order, bit-identical to
        a one-shot run at that order).  Intermediate tiers are streamed
        to ``on_tier`` as lists of non-final responses; the returned
        list holds only final responses in submission order.  Batches
        with no cached prefix are served exactly like :meth:`flush`.
        No tier overshoots the target, however large ``growth`` is.
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
        return self._drain(refine=(tolerance, growth, on_tier))

    def _drain(self, refine=None) -> list[SpectralResponse]:
        """Serve every queued batch; the final responses in submission order."""
        tracer = current_tracer()
        refined = {} if refine is None else {"refined": True}
        with WallTimer() as timer:
            with tracer.span(
                "serve.flush",
                category="serve",
                queue_depth=self.scheduler.depth,
                **refined,
            ) as flush_span:
                responses: dict[int, SpectralResponse] = {}
                forwarded: dict[tuple, CacheEntry] = {}
                batches = self.scheduler.drain()
                flush_span.set(batches=len(batches))
                for batch in batches:
                    self._serve_batch(batch, responses, forwarded, refine)
        self._wall_seconds += timer.seconds
        return [responses[seq] for seq in sorted(responses)]

    def _serve_batch(
        self, batch: Batch, responses: dict, forwarded: dict, refine=None
    ) -> None:
        """Answer every member of ``batch`` into ``responses``.

        The lookup tries the cache, then a sibling batch's entry from
        this flush (``forwarded``), then grows the key's moments to the
        batch order.  Under ``refine = (tolerance, growth, on_tier)`` a
        cached prefix below the batch order is answered at once as tier
        0 and grown tier by tier.  A request-side error (any
        :class:`~repro.errors.ReproError` but a
        :class:`~repro.errors.DeviceError`) answers each member it hits
        ``rejected``; a device fault no engine can absorb propagates.
        """
        tracer = current_tracer()
        head = batch.entries[0]
        target = batch.num_moments
        with tracer.span(
            "serve.batch",
            category="serve",
            batch_id=batch.batch_id,
            size=batch.size,
            coalesced=batch.size - 1,
            queue_wait=self._next_seq - 1 - head.seq,
        ) as batch_span:
            stored = self.cache.entry_at(batch.key)
            refining = (
                refine is not None
                and stored is not None
                and stored.num_moments < target
            )
            tolerance, growth, on_tier = refine if refining else (None, None, None)
            # Under refinement the whole shorter prefix is the hit.
            entry = self.cache.get(
                batch.key, num_moments=None if refining else target
            )
            mode, source = ("refined" if refining else "hit"), "cache"
            if entry is None:
                sibling = forwarded.get(batch.key)
                if sibling is not None and sibling.num_moments >= target:
                    # Cache disabled (or the entry was evicted mid-flush):
                    # a sibling batch already computed these moments.
                    entry, mode, source = sibling.prefix(target), "forward", "forwarded"
                    self._forwards += 1
            cost = None if entry is None or entry.modeled_seconds is None else 0.0
            tier = 0
            try:
                if entry is None:
                    entry, source, cost = self._grow(batch, target, forwarded)
                    mode = "extend" if source == "extended" else "compute"
                self._account_naive(batch, entry)
                self._batches_total += 1
                self._coalesced_requests += batch.size - 1
                while True:
                    order = entry.num_moments
                    converged = tolerance is not None and (
                        self._convergence_estimate(entry) <= tolerance
                    )
                    final = order >= target or converged
                    answers = self._answer(
                        batch, entry, source, cost,
                        coalesced=mode in ("extend", "compute"),
                        tier=tier, final=final,
                    )
                    if final:
                        break
                    # A member rejected at reconstruction is final at once.
                    streamed = [a for a in answers.values() if not a.final]
                    if not streamed:
                        break
                    if on_tier is not None:
                        on_tier(streamed)
                    # Clamped before ceil: a huge finite growth is the target.
                    next_order = max(order + 1, math.ceil(min(order * growth, target)))
                    entry, source, cost = self._grow(batch, next_order, forwarded)
                    self._refined_tiers += 1
                    tier += 1
            except ReproError as exc:
                if isinstance(exc, DeviceError):
                    raise
                answers = {
                    queued.seq: _rejected(queued.request, batch, exc)
                    for queued in batch.entries
                }
                batch_span.set(cache="error", num_moments=target)
            else:
                batch_span.set(
                    cache=mode, engine=entry.engine, num_moments=entry.num_moments
                )
                if refining:
                    early_stop = entry.num_moments < target and any(
                        a.outcome != "rejected" for a in answers.values()
                    )
                    self._early_stops += early_stop
                    batch_span.set(tiers=tier, early_stop=early_stop)
            responses.update(answers)
            self._responses_total += len(answers)

    def _answer(
        self, batch: Batch, entry: CacheEntry, source: str, cost, *,
        coalesced: bool = False, tier: int = 0, final: bool = True,
        outcome: str = "served", reason: str = "",
    ) -> dict[int, SpectralResponse]:
        """One response per member of ``batch``, each at its own order.

        Every member is reconstructed from ``entry`` truncated to the
        smaller of its own ``N`` and the entry's; members with equal
        reconstruction inputs share one (see :meth:`_reconstruction`).
        ``coalesced`` labels the members after the head ``"coalesced"``:
        they rode along on the run the head triggered.  A member whose
        reconstruction raises a request-side error is answered
        ``rejected`` alone.
        """
        answers = {}
        for index, queued in enumerate(batch.entries):
            request = queued.request
            member = entry.prefix(min(request.config.num_moments, entry.num_moments))
            try:
                energies, values = self._reconstruction(batch.key, request, member)
            except DeviceError:
                raise
            except ReproError as exc:
                answers[queued.seq] = _rejected(request, batch, exc)
                continue
            answers[queued.seq] = SpectralResponse(
                kind=request.kind,
                tag=request.tag,
                energies=energies,
                values=values,
                moments=member.moments,
                rescaling=member.rescaling,
                config=request.config,
                source="coalesced" if coalesced and index else source,
                engine=member.engine,
                batch_id=batch.batch_id,
                modeled_seconds=cost,
                num_moments_served=member.num_moments,
                tier=tier,
                final=final,
                outcome=outcome,
                reason=reason,
                tenant=request.tenant,
                deadline=request.deadline,
            )
        return answers

    # ------------------------------------------------------------------
    # Moment production
    # ------------------------------------------------------------------
    def _scaled_for_key(self, key: tuple, operator, config) -> tuple:
        """The (scaled, rescaling) pair for ``key``, memoized.

        Rescaling is a deterministic function of the operator and the
        bounds options alone, so one rescale per (fingerprint,
        ``bounds_method``, ``epsilon``) serves every compute, extension,
        naive-cost estimate and gateway admission price of every key on
        that operator.  With a tuner, keys tuned to one format share a copy.
        """
        facts = self.memo.facts(key[0])
        cached = facts.scaled.get(key[1])
        if cached is None:
            bounds = (config.bounds_method, config.epsilon)
            cached = facts.rescaled.get(bounds)
            if cached is None:
                cached = facts.rescaled[bounds] = rescale_operator(
                    operator, method=config.bounds_method, epsilon=config.epsilon
                )
            scaled, rescaling = cached
            if self.tuner is not None:
                # Convert once to the tuned storage: engines and the
                # LDoS host recursion then execute (and admission prices)
                # that format for every request sharing the key.  A
                # dense-stored operator is profiled and re-stored from
                # the one CSR copy its keys share.
                sparse = facts.sparse.get(bounds)
                if sparse is None:
                    sparse = facts.sparse[bounds] = (
                        scaled
                        if isinstance(scaled, (CSRMatrix, ELLMatrix))
                        else as_format(scaled, "csr")
                    )
                choice = self.tuner.choose(sparse, config)
                tuned = bounds + (choice.format,)
                if tuned not in facts.tuned:
                    facts.tuned[tuned] = self.tuner.prepare_operator(
                        scaled if choice.format == "dense" else sparse, choice
                    )
                cached = (facts.tuned[tuned], rescaling)
            facts.scaled[key[1]] = cached
        return cached

    def _grow(self, batch: Batch, num_moments: int, forwarded: dict) -> tuple:
        """Grow the batch key's moments to ``num_moments``: the only producer.

        A cached prefix with a recursion state is resumed — on the host
        for LDoS, else on the engine that produced it while that engine
        is in rotation and resumable — so the extended table is
        bit-identical to that engine's cold run.  Otherwise the moments
        are computed cold: LDoS on the host (the path of
        :func:`repro.kpm.local_dos`), trace requests on the key's
        affinity engine, failing over across the pool on device faults.
        The entry is cached (with its state when there is a prefix cache
        to keep it in — the capture download is not free) and forwarded
        to sibling batches of this flush.

        Returns ``(entry, source, marginal)``: ``source`` is
        ``"extended"`` or ``"computed"``, ``marginal`` the modeled
        seconds spent here (``None`` for unmodeled work).
        """
        head = batch.entries[0]
        config = head.request.config
        scaled, rescaling = self._scaled_for_key(batch.key, head.operator, config)
        if config.num_moments != num_moments:
            config = config.with_updates(num_moments=num_moments)
        keep_state = self.cache.capacity > 0 and self.cache.prefix
        base = self.cache.peek_extendable(batch.key, num_moments)
        entry = marginal = None
        if base is not None and base.engine == HOST_ENGINE:
            segment, state = extend_recursion(scaled, base.state, num_moments)
            entry = CacheEntry(
                np.concatenate([base.moments, segment]), rescaling, HOST_ENGINE,
                None, state,
            )
        elif base is not None:
            slot = self._slot_for_engine(base.engine)
            if slot is not None and isinstance(slot.engine, ResumableMomentEngine):
                ran = self._call_engine(
                    slot, slot.engine.extend_moments,
                    scaled, config, base.moments, base.state,
                )
                if ran is not None:
                    data, marginal, state = ran
                    invested = None
                    if base.modeled_seconds is not None or marginal is not None:
                        invested = (base.modeled_seconds or 0.0) + (marginal or 0.0)
                    entry = CacheEntry(data, rescaling, slot.name, invested, state)
        source = "extended"
        if entry is None:
            source = "computed"
            if isinstance(head.request, LDoSRequest):
                start = np.zeros(head.operator.shape[0], dtype=np.float64)
                start[head.request.site] = 1.0
                mu, state = moments_resumable(
                    scaled, start, num_moments, use_doubling=config.use_doubling
                )
                entry = CacheEntry(
                    mu, rescaling, HOST_ENGINE, None, state if keep_state else None
                )
            else:
                tried: list = []
                ran = None
                while ran is None:
                    slot = self.pool.select(
                        self._key_affinity[batch.key], excluding=tried
                    )
                    tried.append(slot)
                    if keep_state and isinstance(slot.engine, ResumableMomentEngine):
                        method = slot.engine.compute_moments_resumable
                    else:
                        method = slot.engine.compute_moments
                    ran = self._call_engine(slot, method, scaled, config)
                data, marginal, state = ran
                entry = CacheEntry(data, rescaling, slot.name, marginal, state)
        else:
            self._extensions += 1
        self.cache.put(batch.key, entry, extended=source == "extended")
        forwarded[batch.key] = entry
        if marginal is not None:
            self._modeled_served += marginal
        return entry, source, marginal

    def _call_engine(self, slot: EngineSlot, method, *args):
        """Run one engine call on ``slot`` under the pool's health accounting.

        Returns ``(data, modeled_seconds, state)`` — ``state`` is
        ``None`` for a plain ``compute_moments`` — or ``None`` after a
        device fault, which strikes the slot.  Request-side errors
        (``ValidationError`` etc.) propagate and do not penalize the
        engine.
        """
        tracer = current_tracer()
        clock_mark = getattr(tracer, "clock", 0.0)
        try:
            data, report, *state = method(*args)
        except DeviceError:
            self.pool.report_failure(slot)
            return None
        seconds = report.modeled_seconds
        if seconds is not None and getattr(tracer, "clock", 0.0) == clock_mark:
            # Uninstrumented engines (e.g. the cost-model backend) still
            # put their modeled total on the trace clock.
            tracer.advance(seconds)
        self.pool.report_success(slot, seconds)
        return data, seconds, (state[0] if state else None)

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
        An LDoS price drops the site, which the estimate does not read,
        and keys the storage priced instead.
        """
        estimate = getattr(slot.engine, "estimate_modeled_seconds", None)
        if estimate is None:
            return None
        facts = self.memo.facts(key[0])
        identity = key[1]
        if identity[0] == "site":
            scaled = facts.scaled.get(identity) or self._scaled_for_key(key, operator, config)
            identity = ("site", *identity[2:], type(scaled[0]).__name__)
        price_key = (slot.name, identity, config)
        cost = facts.prices.get(price_key)
        if cost is None:
            scaled, _ = self._scaled_for_key(key, operator, config)
            cost = facts.prices[price_key] = estimate(scaled, config)
        return cost

    def _convergence_estimate(self, entry: CacheEntry) -> float:
        moments = entry.moments
        if isinstance(moments, MomentData):
            return moment_convergence_estimate(moments)
        tail = moments[-max(1, len(moments) // 4) :]
        return float(np.sqrt(np.mean(np.square(tail))))

    # ------------------------------------------------------------------
    # Reconstruction (at each request's own order, shared between equals)
    # ------------------------------------------------------------------
    def _reconstruction(self, key: tuple, request, entry: CacheEntry) -> tuple:
        """The read-only ``(energies, values)`` of ``request`` from ``entry``.

        Memoized on what they depend on: the batch ``key`` (operator
        content and moment identity, hence the rescaling), the engine
        that produced the moments (engines may differ in the last bit),
        the served order, the request kind, and the kernel and grid —
        ``num_energy_points``, or the exact bytes of the Green energies.
        The LRU keeps at most ``self.memo.capacity`` pairs.
        """
        config = request.config
        if isinstance(request, GreenRequest):
            energies = np.asarray(request.energies, dtype=np.float64)
            kernel, grid = request.kernel, energies.tobytes()
        else:
            energies = None
            kernel, grid = config.kernel, config.num_energy_points
        memo_key = (key, entry.engine, entry.num_moments, request.kind, kernel, grid)
        cached = self._reconstructions.get(memo_key)
        if cached is not None:
            self._reconstructions.move_to_end(memo_key)
            return cached
        if energies is not None:
            values = greens_function(
                entry.moments, entry.rescaling, energies, kernel=kernel
            )
        else:
            energies, values = dos_from_moments(
                entry.moments, entry.rescaling, kernel=kernel, num_points=grid
            )
        # Both arrays were allocated here, never a caller's.
        energies.flags.writeable = False
        values.flags.writeable = False
        cached = self._reconstructions[memo_key] = (energies, values)
        if len(self._reconstructions) > self.memo.capacity:
            self._reconstructions.popitem(last=False)
        return cached

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
