"""Request/response records and cache-key derivation for :mod:`repro.serve`.

The service accepts three request kinds that all feed on Chebyshev
moments:

* :class:`DoSRequest`   — density of states (stochastic trace moments);
* :class:`GreenRequest` — retarded Green's function (same trace moments
  as the DoS — moments are reusable across reconstructions);
* :class:`LDoSRequest`  — local DoS at one site (deterministic
  single-vector moments).

Two requests are *compatible* (coalescible, and able to share a cache
entry) when they would execute the same moment computation: same
operator fingerprint and same :func:`moment_identity_key`.  The
identity key deliberately excludes ``kernel`` and ``num_energy_points``
— damping and reconstruction happen after the moments, so a Jackson DoS
and a Lorentz Green's function of the same Hamiltonian ride on one
engine run — and, since moments are *prefix-closed* (``mu_n`` never
depends on the truncation order), it also excludes ``num_moments``:
requests differing only in ``N`` share a batch and a cache entry, the
longest order wins, and shorter members are served bit-identical
prefix slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.moments import MomentData
from repro.kpm.rescale import Rescaling
from repro.util.rng import normalize_seed
from repro.util.validation import check_nonnegative_int

__all__ = [
    "REQUEST_API_VERSION",
    "RESPONSE_OUTCOMES",
    "SpectralRequest",
    "DoSRequest",
    "LDoSRequest",
    "GreenRequest",
    "SpectralResponse",
    "moment_identity_key",
]

#: Version of the request/response surface.  v1 (PR 3) had no tenancy or
#: scheduling fields; v2 adds ``tenant`` / ``deadline`` / ``priority`` on
#: every request and the structured ``outcome`` on every response.  All
#: v1 call sites remain valid — the new fields default to the v1
#: semantics (anonymous tenant, no deadline, neutral priority).
REQUEST_API_VERSION = 2

#: The structured disposition taxonomy carried by
#: :attr:`SpectralResponse.outcome`.
RESPONSE_OUTCOMES = ("served", "degraded", "rejected", "cancelled")


class SpectralRequest:
    """Versioned base of every request kind (``api_version`` 2).

    Concrete requests (:class:`DoSRequest`, :class:`LDoSRequest`,
    :class:`GreenRequest`) are frozen dataclasses that share — besides
    ``hamiltonian`` / ``config`` / ``tag`` — the v2 multi-tenant fields:

    tenant:
        Logical principal the request is billed to.  Admission control
        (token buckets, modeled-second quotas) is keyed on it; the
        default ``"default"`` tenant keeps v1 call sites working.
    deadline:
        Absolute *modeled-clock* second by which an answer is useful
        (``None`` = no deadline).  The EDF scheduler orders batches by
        it, and the gateway degrades to a cached prefix instead of
        queueing past it.
    priority:
        Deadline tie-breaker (higher is more urgent); ties after that
        fall back to submission order, keeping scheduling deterministic.

    The shared ``__post_init__`` validation lives here so every request
    kind rejects malformed tenancy fields identically with
    :class:`~repro.errors.ValidationError`, per the error taxonomy.
    """

    api_version = REQUEST_API_VERSION

    def _validate_service_fields(self) -> None:
        if not isinstance(self.config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(self.config).__name__}"
            )
        if not isinstance(self.tag, str):
            raise ValidationError(
                f"tag must be a string, got {type(self.tag).__name__}"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValidationError(
                f"tenant must be a non-empty string, got {self.tenant!r}"
            )
        if self.deadline is not None:
            try:
                deadline = float(self.deadline)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"deadline must be a number or None, got {self.deadline!r}"
                ) from None
            if not math.isfinite(deadline) or deadline < 0.0:
                raise ValidationError(
                    "deadline must be a non-negative finite modeled-clock "
                    f"second, got {deadline}"
                )
            object.__setattr__(self, "deadline", deadline)
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ValidationError(
                f"priority must be an integer, got {self.priority!r}"
            )

    @property
    def effective_deadline(self) -> float:
        """The deadline as a sortable float (``inf`` when unset)."""
        return math.inf if self.deadline is None else self.deadline


def moment_identity_key(config: KPMConfig, *, site: int | None = None) -> tuple:
    """The config fields that determine the moment *values* — minus ``N``.

    Moments are prefix-closed: ``mu_n`` depends only on the operator,
    the random streams, and the rescaling — never on the truncation
    order.  Everything that shares this key can share one recursion; the
    truncation order is stored per cache entry and compared at lookup
    (``N' <= N_cached`` is a hit served as a slice).

    Trace moments depend on the stochastic estimator's full setup;
    single-site (LDoS) moments are deterministic and depend only on the
    site and the rescaling options.  Neither depends on ``kernel`` or
    ``num_energy_points``, which act downstream of the moments.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(
            f"config must be a KPMConfig, got {type(config).__name__}"
        )
    if site is not None:
        site = check_nonnegative_int(site, "site")
        return (
            "site",
            site,
            config.bounds_method,
            config.epsilon,
            config.use_doubling,
        )
    return (
        "trace",
        config.num_random_vectors,
        config.num_realizations,
        config.vector_kind,
        normalize_seed(config.seed),
        config.bounds_method,
        config.epsilon,
        config.use_doubling,
        config.block_size,
        config.precision,
    )


@dataclass(frozen=True)
class DoSRequest(SpectralRequest):
    """Density-of-states request: the full :func:`repro.kpm.compute_dos`.

    Attributes
    ----------
    hamiltonian:
        Unscaled symmetric operator (``ndarray``, CSR/COO, dense
        operator).  Must expose ``fingerprint()`` after
        :func:`repro.sparse.as_operator` coercion — all library
        representations do.
    config:
        KPM parameters; ``kernel`` and ``num_energy_points`` are applied
        per-request even inside a coalesced batch.
    tag:
        Opaque caller label echoed on the response.
    tenant / deadline / priority:
        The v2 multi-tenant fields — see :class:`SpectralRequest`.
    """

    hamiltonian: object
    config: KPMConfig = field(default_factory=KPMConfig)
    tag: str = ""
    tenant: str = "default"
    deadline: float | None = None
    priority: int = 0

    kind = "dos"

    def __post_init__(self) -> None:
        self._validate_service_fields()


@dataclass(frozen=True)
class LDoSRequest(SpectralRequest):
    """Local-DoS request: ``rho_site(omega)`` via deterministic moments.

    Served on the host through the same path as
    :func:`repro.kpm.local_dos` (single basis-vector recursion), so a
    service response is bit-identical to a direct call.
    """

    hamiltonian: object
    site: int
    config: KPMConfig = field(default_factory=KPMConfig)
    tag: str = ""
    tenant: str = "default"
    deadline: float | None = None
    priority: int = 0

    kind = "ldos"

    def __post_init__(self) -> None:
        self._validate_service_fields()
        check_nonnegative_int(self.site, "site")


@dataclass(frozen=True)
class GreenRequest(SpectralRequest):
    """Green's-function request: ``G(omega + i0+)`` at chosen energies.

    Shares trace moments with :class:`DoSRequest` — a Green request whose
    config matches a DoS request coalesces into the same engine batch and
    hits the same cache entry.
    """

    hamiltonian: object
    energies: tuple[float, ...]
    config: KPMConfig = field(default_factory=KPMConfig)
    kernel: str = "lorentz"
    tag: str = ""
    tenant: str = "default"
    deadline: float | None = None
    priority: int = 0

    kind = "green"

    def __post_init__(self) -> None:
        self._validate_service_fields()
        energies = tuple(float(e) for e in np.atleast_1d(
            np.asarray(self.energies, dtype=np.float64)
        ))
        if not energies:
            raise ValidationError("energies must not be empty")
        object.__setattr__(self, "energies", energies)
        if not isinstance(self.kernel, str):
            raise ValidationError(
                f"kernel must be a string, got {type(self.kernel).__name__}"
            )


@dataclass
class SpectralResponse:
    """One served request's result plus its provenance.

    Attributes
    ----------
    kind:
        ``"dos"``, ``"ldos"``, or ``"green"``.
    tag:
        The request's ``tag``, echoed.
    energies:
        Energy grid (DoS/LDoS) or the requested energies (Green).
    values:
        Density, local density, or complex ``G`` on ``energies``.
    moments:
        The moment estimates the reconstruction consumed
        (:class:`~repro.kpm.MomentData` for trace requests, a raw moment
        array for LDoS).
    rescaling:
        The affine spectral map used.
    config:
        The request's :class:`~repro.kpm.KPMConfig`.
    source:
        ``"computed"`` (this request triggered the engine run),
        ``"coalesced"`` (rode along in the triggering batch),
        ``"cache"`` (served from the moment cache — exact or prefix),
        ``"extended"`` (the cached entry was resumed to a higher order
        for this batch), or ``"forwarded"`` (served from a sibling
        batch's entry within the same flush when the cache is disabled).
        A valueless response names who answered it: ``"gateway"``
        (refused at admission, cancelled, or invalid on arrival) or
        ``"service"`` (rejected because producing its batch's moments
        raised a request-side error).
    engine:
        Name of the engine that produced the moments (``"host"`` for
        LDoS).
    batch_id:
        Sequence number of the batch that served this response.
    modeled_seconds:
        Marginal modeled engine seconds the batch spent for this answer
        (``None`` for backends without a hardware model): the full run
        for ``"computed"``/``"coalesced"``, the resume cost for
        ``"extended"``, zero for ``"cache"``/``"forwarded"``.
    num_moments_served:
        Truncation order of the moments this response was reconstructed
        from (equals ``config.num_moments`` except for refinement tiers
        stopped early).
    tier:
        Refinement tier index (0 for one-shot serving and the immediate
        prefix answer; increments per streamed refinement).
    final:
        ``False`` for intermediate refinement tiers streamed via
        ``on_tier`` and for gateway *degraded* answers (a degraded
        response is exactly an unfinished refinement: the low-``N``
        prefix tier, cut off by the deadline instead of convergence);
        every response returned by ``flush`` / ``flush_refined`` is
        final.
    outcome:
        Structured disposition (v2 surface): ``"served"`` (full
        precision at the request's own ``N``), ``"degraded"`` (answered
        from a cached lower-``N`` prefix under overload), ``"rejected"``
        (admission refused it — no values), or ``"cancelled"``
        (withdrawn before dispatch — no values).
    reason:
        Human-readable cause for ``rejected`` / ``degraded`` /
        ``cancelled`` outcomes (empty for ``served``).
    tenant:
        The request's tenant, echoed.
    deadline:
        The request's absolute modeled-clock deadline, echoed
        (``None`` when it had none).
    deadline_missed:
        ``True`` when the answer was produced after the deadline had
        passed on the modeled clock (late full-precision service).
    """

    kind: str
    tag: str
    energies: np.ndarray | None
    values: np.ndarray | None
    moments: MomentData | np.ndarray | None
    rescaling: Rescaling | None
    config: KPMConfig
    source: str
    engine: str
    batch_id: int
    modeled_seconds: float | None
    num_moments_served: int | None = None
    tier: int = 0
    final: bool = True
    outcome: str = "served"
    reason: str = ""
    tenant: str = "default"
    deadline: float | None = None
    deadline_missed: bool = False

    def __post_init__(self) -> None:
        if self.outcome not in RESPONSE_OUTCOMES:
            raise ValidationError(
                f"outcome must be one of {', '.join(RESPONSE_OUTCOMES)}, "
                f"got {self.outcome!r}"
            )

    @property
    def answered(self) -> bool:
        """True when the response carries values (served or degraded)."""
        return self.outcome in ("served", "degraded")

    @classmethod
    def unserved(
        cls,
        request: SpectralRequest,
        *,
        outcome: str,
        reason: str,
        source: str,
        batch_id: int = -1,
    ) -> "SpectralResponse":
        """A valueless terminal response (``rejected`` / ``cancelled``).

        Echoes the request's identity fields; ``energies`` / ``values`` /
        ``moments`` / ``rescaling`` are ``None`` and ``batch_id`` is
        ``-1`` unless the caller attributes it to a batch.  ``source``
        is ``"gateway"`` or ``"service"``, whichever answered it.
        """
        if not isinstance(request, SpectralRequest):
            raise ValidationError(
                f"request must be a SpectralRequest, got {type(request).__name__}"
            )
        if outcome not in ("rejected", "cancelled"):
            raise ValidationError(
                f"unserved outcome must be 'rejected' or 'cancelled', got {outcome!r}"
            )
        if source not in ("gateway", "service"):
            raise ValidationError(
                f"unserved source must be 'gateway' or 'service', got {source!r}"
            )
        return cls(
            kind=request.kind,
            tag=request.tag,
            energies=None,
            values=None,
            moments=None,
            rescaling=None,
            config=request.config,
            source=source,
            engine="",
            batch_id=batch_id,
            modeled_seconds=0.0,
            num_moments_served=0,
            outcome=outcome,
            reason=str(reason),
            tenant=request.tenant,
            deadline=request.deadline,
        )

    def to_dos_result(self):
        """Repackage a ``"dos"`` response as :class:`repro.kpm.DoSResult`.

        Field-for-field equal to what ``compute_dos`` would have
        returned (the timing report is the batch's, not a per-request
        measurement).
        """
        from repro.kpm.dos import DoSResult
        from repro.timing import TimingReport

        if self.kind != "dos":
            raise ValidationError(
                f"to_dos_result() requires a 'dos' response, got {self.kind!r}"
            )
        timing = TimingReport(
            backend=self.engine, modeled_seconds=self.modeled_seconds
        )
        return DoSResult(
            energies=self.energies,
            density=self.values,
            moments=self.moments,
            rescaling=self.rescaling,
            config=self.config,
            timing=timing,
        )
