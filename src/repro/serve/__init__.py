"""repro.serve — batching + caching spectral service layer.

The production-facing front-end the ROADMAP's heavy-traffic north star
calls for: DoS, local-DoS, and Green's-function requests are admitted
into a deterministic FIFO queue, coalesced when they share an operator
fingerprint and moment *identity* (truncation order excluded), served
from a bounded LRU prefix moment cache on repeats — lower orders are
bit-identical slices, higher orders resume the cached recursion from
its checkpoint — and dispatched across a health-tracked pool of
:class:`~repro.kpm.engines.MomentEngine` backends.

Quick start::

    from repro.serve import DoSRequest, SpectralService

    service = SpectralService(backends=("gpu-sim",))
    responses = service.serve([DoSRequest(H), DoSRequest(H)])
    # second response is coalesced: one engine run, bit-identical moments
    print(service.metrics().summary())

Serving v2 adds the multi-tenant :class:`Gateway` on top — per-tenant
admission control (:class:`AdmissionController`), earliest-deadline-
first scheduling (:class:`EdfCoalesceScheduler`), cancellation, overload
degradation from cached prefixes, and an :class:`ElasticEnginePool`
that follows the modeled demand rate::

    from repro.serve import Gateway, timed_trace

    gateway = Gateway(template=("gpu-sim", "cpu-model"))
    responses = gateway.run_trace(timed_trace(200, seed=0))
    print(gateway.gateway_metrics().summary())

Everything here is deterministic by construction (counter-based state,
no wall-clock or RNG in scheduling) — replies are bit-identical to
direct :func:`repro.kpm.compute_dos` / :func:`repro.kpm.local_dos`
calls, and the gateway's scheduling never changes full-precision
results versus a serial FIFO run (:func:`check_equivalence` proves it
per trace; the property suite pins both).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TenantPolicy,
    TokenBucket,
)
from repro.serve.cache import CacheEntry, MomentCache
from repro.serve.equivalence import EquivalenceReport, check_equivalence
from repro.serve.gateway import Gateway, GatewayMetrics
from repro.serve.health import (
    ElasticEnginePool,
    EnginePool,
    EngineSlot,
    PoolStats,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.requests import (
    REQUEST_API_VERSION,
    RESPONSE_OUTCOMES,
    DoSRequest,
    GreenRequest,
    LDoSRequest,
    SpectralRequest,
    SpectralResponse,
    moment_identity_key,
)
from repro.serve.scheduler import (
    Batch,
    EdfCoalesceScheduler,
    FifoCoalesceScheduler,
    QueuedRequest,
)
from repro.serve.service import SpectralService
from repro.serve.trace import synthetic_trace
from repro.serve.traffic import TimedArrival, timed_trace

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Batch",
    "CacheEntry",
    "DoSRequest",
    "EdfCoalesceScheduler",
    "ElasticEnginePool",
    "EnginePool",
    "EngineSlot",
    "EquivalenceReport",
    "FifoCoalesceScheduler",
    "Gateway",
    "GatewayMetrics",
    "GreenRequest",
    "LDoSRequest",
    "MomentCache",
    "PoolStats",
    "QueuedRequest",
    "REQUEST_API_VERSION",
    "RESPONSE_OUTCOMES",
    "ServiceMetrics",
    "SpectralRequest",
    "SpectralResponse",
    "SpectralService",
    "TenantPolicy",
    "TimedArrival",
    "TokenBucket",
    "check_equivalence",
    "moment_identity_key",
    "synthetic_trace",
    "timed_trace",
]
