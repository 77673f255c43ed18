"""Output oracles of the benchmark workloads.

Every check returns a list of problems; an empty list means the output
passed.  A problem marks the operation as failed and never aborts the
run.  The paper-dos error bound is independent of the program: exact
moments come from the analytic spectrum of the periodic cubic lattice,
not from any code path the engines share.
"""

from __future__ import annotations

import math

import numpy as np

TERMINAL_OUTCOMES = frozenset({"served", "degraded", "rejected", "cancelled"})
ANSWERED_OUTCOMES = frozenset({"served", "degraded"})

#: The numpy and gpu-sim engines sum in different orders (1 ulp today).
ENGINE_TOLERANCE = 1e-12
#: ``|integral of rho - 1|`` allowed for a Jackson-damped reconstruction.
NORMALIZATION_TOLERANCE = 1e-3
#: Standard errors allowed between stochastic and exact moments.
STOCHASTIC_SIGMAS = 6.0


def bit_identical(actual, expected, what: str) -> list[str]:
    """Require two arrays to be equal element for element."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    if not np.array_equal(actual, expected):
        differing = int(np.count_nonzero(actual != expected))
        return [f"{what}: {differing} element(s) differ from the reference"]
    return []


def engines_agree(mu, reference_mu, tolerance: float = ENGINE_TOLERANCE) -> list[str]:
    """Require two engines' moments to agree within ``tolerance``."""
    diff = float(np.max(np.abs(np.asarray(mu) - np.asarray(reference_mu))))
    if not diff <= tolerance:
        return [f"engines disagree: max |mu - mu_ref| = {diff:.3e} > {tolerance:.0e}"]
    return []


def normalized(energies, density, tolerance: float = NORMALIZATION_TOLERANCE) -> list[str]:
    """Require the density of states to integrate to one."""
    integral = float(np.trapezoid(density, energies))
    if not abs(integral - 1.0) <= tolerance:
        return [f"integral of rho = {integral:.6f}, not within {tolerance} of 1"]
    return []


def cubic_exact_moments(side: int, rescaling, num_moments: int) -> np.ndarray:
    """Exact ``mu_n = mean_k T_n(x_k)`` of the periodic cubic lattice.

    The spectrum of nearest-neighbour hopping ``-1`` on a periodic cube
    is ``-2 (cos kx + cos ky + cos kz)`` with ``k = 2 pi m / side``;
    ``rescaling`` maps it to ``x`` in ``[-1, 1]``.
    """
    cosines = np.cos(2.0 * np.pi * np.arange(side) / side)
    energies = -2.0 * (
        cosines[:, None, None] + cosines[None, :, None] + cosines[None, None, :]
    ).ravel()
    theta = np.arccos(rescaling.to_scaled(energies))
    return np.cos(np.outer(np.arange(num_moments), theta)).mean(axis=1)


def stochastic_bound(total_vectors: int, dim: int) -> float:
    """``6 sqrt(2 / (R S D))``: the stochastic-trace error scale (Weisse et al.)."""
    return STOCHASTIC_SIGMAS * math.sqrt(2.0 / (total_vectors * dim))


def matches_exact_cubic(mu, rescaling, side: int, total_vectors: int) -> list[str]:
    """Require stochastic moments of the cube to lie near the exact ones."""
    mu = np.asarray(mu)
    exact = cubic_exact_moments(side, rescaling, mu.size)
    error = float(np.max(np.abs(mu - exact)))
    bound = stochastic_bound(total_vectors, side**3)
    if not error <= bound:
        return [f"max |mu - mu_exact| = {error:.4f} exceeds {bound:.4f}"]
    return []


def _finite(values) -> bool:
    return values is not None and bool(np.all(np.isfinite(values)))


def gateway_responses(arrivals, responses) -> list[str]:
    """One terminal response per arrival, in offer order, finite when answered."""
    if len(responses) != len(arrivals):
        return [f"{len(responses)} responses for {len(arrivals)} arrivals"]
    problems = []
    for arrival, response in zip(arrivals, responses):
        tag = arrival.request.tag
        if response.tag != tag:
            problems.append(f"response {response.tag!r} answers arrival {tag!r}")
        elif response.outcome not in TERMINAL_OUTCOMES:
            problems.append(f"{tag}: outcome {response.outcome!r} is not terminal")
        elif response.outcome in ANSWERED_OUTCOMES and not (
            _finite(response.values) and _finite(response.energies)
        ):
            problems.append(f"{tag}: non-finite density")
    return problems


def refine_responses(responses, targets) -> list[str]:
    """One final served answer per order; lower orders are prefixes of the last."""
    if len(responses) != len(targets):
        return [f"{len(responses)} responses for {len(targets)} orders"]
    problems = []
    for response, target in zip(responses, targets):
        if response.outcome != "served" or not response.final:
            problems.append(f"N={target}: {response.outcome}, final={response.final}")
        elif response.num_moments_served != target:
            problems.append(f"N={target}: served {response.num_moments_served} moments")
        elif not _finite(response.values):
            problems.append(f"N={target}: non-finite density")
    if problems:
        return problems
    final = responses[-1].moments.mu
    for response, target in zip(responses[:-1], targets[:-1]):
        problems += bit_identical(
            response.moments.mu, final[:target], f"N={target} prefix of N={targets[-1]}"
        )
    return problems


def matches_cold(response, cold_result) -> list[str]:
    """A served answer equals a cold one-shot ``compute_dos`` bit for bit."""
    return bit_identical(
        response.moments.mu, cold_result.moments.mu, "moments vs cold run"
    ) + bit_identical(response.values, cold_result.density, "density vs cold run")
