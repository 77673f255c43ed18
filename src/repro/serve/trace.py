"""Synthetic request traces for serving simulations.

Production spectral workloads are repeat-heavy: many clients ask about
the same few operators (parameter scans re-request the reference system,
dashboards re-render the same DoS, Green's-function callers share the
moments a DoS request already produced).  :func:`synthetic_trace` models
that shape deterministically — a Philox stream keyed by ``seed`` draws
every decision, so the same arguments always produce the identical
trace, which is what the ``serve-sim`` CLI and the serving bench replay.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.lattice import chain, cubic, square, tight_binding_hamiltonian
from repro.serve.requests import DoSRequest, GreenRequest, LDoSRequest
from repro.util.rng import philox_stream
from repro.util.validation import check_positive_int

__all__ = ["synthetic_trace"]

#: Green's-function probe energies — safely inside every pool operator's
#: band (the narrowest, the chain, spans [-2, 2]).
GREEN_ENERGIES = (-0.5, 0.0, 0.5)


def _check_fraction(value, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def _check_mix(repeat_bias, green_fraction, ldos_fraction) -> tuple:
    """The validated workload-mix knobs shared by both trace generators."""
    repeat_bias = _check_fraction(repeat_bias, "repeat_bias")
    green_fraction = _check_fraction(green_fraction, "green_fraction")
    ldos_fraction = _check_fraction(ldos_fraction, "ldos_fraction")
    if green_fraction + ldos_fraction > 1.0:
        raise ValidationError(
            "green_fraction + ldos_fraction must not exceed 1, got "
            f"{green_fraction + ldos_fraction}"
        )
    return repeat_bias, green_fraction, ldos_fraction


def _workload_pool():
    """Distinct (name, hamiltonian, config) moment workloads.

    Three small lattices crossed with a few config variants — enough
    distinct keys that caching matters, small enough that the trace
    replays in seconds on the modeled backends.
    """
    operators = [
        ("chain64", tight_binding_hamiltonian(chain(64))),
        ("square8", tight_binding_hamiltonian(square(8))),
        ("cube4", tight_binding_hamiltonian(cubic(4))),
    ]
    configs = [
        KPMConfig(num_moments=32, num_random_vectors=4, num_realizations=1, seed=3),
        KPMConfig(num_moments=64, num_random_vectors=4, num_realizations=1, seed=3),
        KPMConfig(num_moments=32, num_random_vectors=8, num_realizations=1, seed=11),
    ]
    return [
        (f"{name}/m{config.num_moments}r{config.num_random_vectors}s{config.seed}",
         hamiltonian, config)
        for name, hamiltonian in operators
        for config in configs
    ]


def _draw_workload(rng, pool: list, seen: dict, repeat_bias: float) -> tuple:
    """One ``(name, hamiltonian, config)`` draw: a repeat or a fresh pick.

    ``seen`` maps each workload name drawn so far to its workload, in
    first-draw order; a fresh pick joins it.
    """
    if seen and float(rng.random()) < repeat_bias:
        return list(seen.values())[int(rng.integers(0, len(seen)))]
    workload = pool[int(rng.integers(0, len(pool)))]
    seen.setdefault(workload[0], workload)
    return workload


def _draw_request(
    rng, index: int, workload: tuple, green_fraction, ldos_fraction, **fields
):
    """Draw the request kind (and LDoS site) for ``workload``; build it.

    ``fields`` (tenant, deadline, priority) pass through to the request.
    """
    name, hamiltonian, config = workload
    kind_draw = float(rng.random())
    if kind_draw < green_fraction:
        return GreenRequest(
            hamiltonian,
            energies=GREEN_ENERGIES,
            config=config,
            tag=f"{name}/green/{index}",
            **fields,
        )
    if kind_draw < green_fraction + ldos_fraction:
        site = int(rng.integers(0, hamiltonian.shape[0]))
        return LDoSRequest(
            hamiltonian,
            site=site,
            config=config,
            tag=f"{name}/ldos{site}/{index}",
            **fields,
        )
    return DoSRequest(hamiltonian, config=config, tag=f"{name}/dos/{index}", **fields)


def synthetic_trace(
    num_requests: int,
    *,
    seed: int = 0,
    repeat_bias: float = 0.75,
    green_fraction: float = 0.15,
    ldos_fraction: float = 0.1,
):
    """Generate a deterministic repeat-heavy request trace.

    Parameters
    ----------
    num_requests:
        Length of the trace.
    seed:
        Philox stream key — same seed, same trace, always.
    repeat_bias:
        Probability that a request re-uses an already-seen workload
        (operator + config) instead of drawing a fresh one from the pool.
    green_fraction / ldos_fraction:
        Mix of Green's-function and local-DoS requests; the remainder are
        DoS requests.  Green requests share moments with DoS requests of
        the same workload (the config key excludes reconstruction-only
        parameters), so a higher ``green_fraction`` *raises* reuse.

    Returns
    -------
    list of DoSRequest / GreenRequest / LDoSRequest, ready for
    :meth:`repro.serve.SpectralService.serve`.
    """
    num_requests = check_positive_int(num_requests, "num_requests")
    repeat_bias, green_fraction, ldos_fraction = _check_mix(
        repeat_bias, green_fraction, ldos_fraction
    )
    pool = _workload_pool()
    rng = philox_stream(seed, 0)
    seen: dict = {}
    return [
        _draw_request(
            rng,
            index,
            _draw_workload(rng, pool, seen, repeat_bias),
            green_fraction,
            ldos_fraction,
        )
        for index in range(num_requests)
    ]
