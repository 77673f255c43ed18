"""Replayable multi-tenant traffic for the serving-v2 gateway.

:func:`timed_trace` extends the PR 3 :func:`repro.serve.synthetic_trace`
shape with everything the gateway schedules on: each request gets an
**arrival time on the modeled clock**, a **tenant** drawn from a
Zipf-skewed population (a few heavy tenants, a long light tail — the
shape real multi-tenant services see), a **deadline** (arrival plus a
drawn slack; a configurable fraction run best-effort with none), and a
**priority** level.

Arrival times follow a diurnal profile — a sinusoidal rate over the
trace duration, optionally spiked by *flash crowds* (short windows at a
multiple of the base rate) — realised by rejection-sampling candidate
times against the normalized rate curve.  Every draw comes from one
Philox stream keyed by ``seed``, so the same arguments always replay
the identical timed trace: same arrivals, same tenants, same deadlines,
same workloads.  That replayability is what lets the equivalence
checker compare the gateway against a serial FIFO reference run and
what the ``serve-sim --trace gateway`` CLI and the PR 8 bench replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.serve.requests import SpectralRequest
from repro.serve.trace import (
    _check_fraction,
    _check_mix,
    _draw_request,
    _draw_workload,
    _workload_pool,
)
from repro.util.rng import philox_stream
from repro.util.validation import check_positive_float, check_positive_int

__all__ = ["TimedArrival", "timed_trace"]


@dataclass(frozen=True)
class TimedArrival:
    """One request with its modeled-clock arrival time."""

    at: float
    request: SpectralRequest

    def __post_init__(self) -> None:
        at = float(self.at)
        if not math.isfinite(at) or at < 0.0:
            raise ValidationError(
                f"arrival time must be a non-negative finite number, got {at}"
            )
        object.__setattr__(self, "at", at)
        if not isinstance(self.request, SpectralRequest):
            raise ValidationError(
                f"request must be a SpectralRequest, "
                f"got {type(self.request).__name__}"
            )


def _rate_profile(duration, amplitude, flash_windows, flash_multiplier):
    """λ(t)/λ_base as a closure over the diurnal + flash-crowd shape."""

    def rate(t: float) -> float:
        value = 1.0 + amplitude * math.sin(2.0 * math.pi * t / duration)
        for start, width in flash_windows:
            if start <= t < start + width:
                value *= flash_multiplier
        return value

    return rate


def timed_trace(
    num_requests: int,
    *,
    seed: int = 0,
    tenants: int = 3,
    duration: float = 60.0,
    diurnal_amplitude: float = 0.5,
    flash_crowds: int = 1,
    flash_multiplier: float = 4.0,
    tenant_skew: float = 1.5,
    repeat_bias: float = 0.75,
    green_fraction: float = 0.15,
    ldos_fraction: float = 0.1,
    deadline_slack: float = 5.0,
    no_deadline_fraction: float = 0.1,
    priority_levels: int = 3,
) -> list[TimedArrival]:
    """Generate a deterministic timed multi-tenant trace.

    Parameters
    ----------
    num_requests:
        Trace length; the rate profile shapes *when* they land, not how
        many there are.
    seed:
        Philox stream key — same arguments, same trace, always.
    tenants:
        Tenant population size (named ``tenant-0`` … ``tenant-k``);
        request volume is Zipf-distributed across them with exponent
        ``tenant_skew`` (``tenant-0`` heaviest; ``0.0`` = uniform).
    duration:
        Modeled-clock span of the trace: one full diurnal cycle.
    diurnal_amplitude:
        Peak-to-mean swing of the sinusoidal arrival rate (in [0, 1]).
    flash_crowds / flash_multiplier:
        Number of short (5% of ``duration``) windows at
        ``flash_multiplier``× the instantaneous rate.
    repeat_bias / green_fraction / ldos_fraction:
        Workload mix, as in :func:`repro.serve.synthetic_trace`.
    deadline_slack:
        Mean deadline headroom: each deadline lands at ``arrival +
        slack`` with slack drawn uniformly from ``[0.5, 1.5] ×
        deadline_slack`` modeled seconds.
    no_deadline_fraction:
        Fraction of requests running best-effort (``deadline=None``).
    priority_levels:
        Priorities drawn uniformly from ``0 … priority_levels - 1``.

    Returns
    -------
    list of :class:`TimedArrival`, ascending in ``at``.
    """
    num_requests = check_positive_int(num_requests, "num_requests")
    tenants = check_positive_int(tenants, "tenants")
    duration = check_positive_float(duration, "duration")
    diurnal_amplitude = _check_fraction(diurnal_amplitude, "diurnal_amplitude")
    if flash_crowds < 0:
        raise ValidationError(f"flash_crowds must be >= 0, got {flash_crowds}")
    flash_multiplier = check_positive_float(flash_multiplier, "flash_multiplier")
    tenant_skew = float(tenant_skew)
    if not math.isfinite(tenant_skew) or tenant_skew < 0.0:
        raise ValidationError(
            f"tenant_skew must be a non-negative finite number, got {tenant_skew}"
        )
    repeat_bias, green_fraction, ldos_fraction = _check_mix(
        repeat_bias, green_fraction, ldos_fraction
    )
    deadline_slack = check_positive_float(deadline_slack, "deadline_slack")
    no_deadline_fraction = _check_fraction(
        no_deadline_fraction, "no_deadline_fraction"
    )
    priority_levels = check_positive_int(priority_levels, "priority_levels")

    rng = philox_stream(seed, 1)

    # Flash-crowd windows: deterministic positions in the middle 80% of
    # the trace so a crowd never straddles the boundary.
    width = 0.05 * duration
    flash_windows = [
        (0.1 * duration + 0.8 * duration * float(rng.random()), width)
        for _ in range(int(flash_crowds))
    ]
    rate = _rate_profile(
        duration, diurnal_amplitude, flash_windows, flash_multiplier
    )
    peak = (1.0 + diurnal_amplitude) * max(1.0, flash_multiplier)

    # Zipf tenant weights: w_i ∝ 1/(i+1)^skew, as a cumulative table.
    weights = [(i + 1) ** -tenant_skew for i in range(tenants)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    # Rejection-sample arrival times against the normalized rate curve.
    arrivals: list[float] = []
    while len(arrivals) < num_requests:
        t = duration * float(rng.random())
        if float(rng.random()) * peak <= rate(t):
            arrivals.append(t)
    arrivals.sort()

    pool = _workload_pool()
    seen: dict = {}
    out: list[TimedArrival] = []
    for index, at in enumerate(arrivals):
        workload = _draw_workload(rng, pool, seen, repeat_bias)

        draw = float(rng.random())
        tenant_index = 0
        while cumulative[tenant_index] < draw and tenant_index < tenants - 1:
            tenant_index += 1

        deadline = None
        if float(rng.random()) >= no_deadline_fraction:
            slack = deadline_slack * (0.5 + float(rng.random()))
            deadline = at + slack
        priority = int(rng.integers(0, priority_levels))

        request = _draw_request(
            rng,
            index,
            workload,
            green_fraction,
            ldos_fraction,
            tenant=f"tenant-{tenant_index}",
            deadline=deadline,
            priority=priority,
        )
        out.append(TimedArrival(at=at, request=request))
    return out
