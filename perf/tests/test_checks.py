"""Every oracle accepts the program's output and rejects a seeded wrong moment."""

import copy
import dataclasses

import numpy as np
import pytest

from repro import KPMConfig, compute_dos
from repro.kpm import dos_from_moments, exact_moments, rescale_operator
from repro.lattice import anderson_onsite_energies, cubic, paper_cubic_hamiltonian
from repro.lattice import tight_binding_hamiltonian
from repro.serve import DoSRequest, Gateway, SpectralService, TenantPolicy, timed_trace
from repro.tune import Autotuner

import checks

SIDE = 6
CONFIG = KPMConfig(num_moments=64, num_random_vectors=16, seed=5)


@pytest.fixture(scope="module")
def cube_dos():
    return compute_dos(paper_cubic_hamiltonian(SIDE, format="csr"), CONFIG, backend="gpu-sim")


def _nudged(mu, index=3, by=None):
    wrong = np.array(mu, copy=True)
    wrong[index] = np.nextafter(wrong[index], np.inf) if by is None else wrong[index] + by
    return wrong


def test_analytic_cube_moments_match_exact_diagonalization(cube_dos):
    scaled, rescaling = rescale_operator(paper_cubic_hamiltonian(SIDE, format="csr"))
    analytic = checks.cubic_exact_moments(SIDE, rescaling, CONFIG.num_moments)
    np.testing.assert_allclose(
        analytic, exact_moments(scaled, CONFIG.num_moments), rtol=0, atol=1e-13
    )


def test_exact_moment_bound(cube_dos):
    mu = cube_dos.moments.mu
    args = (cube_dos.rescaling, SIDE, CONFIG.total_vectors)
    assert checks.matches_exact_cubic(mu, *args) == []
    bound = checks.stochastic_bound(CONFIG.total_vectors, SIDE**3)
    assert checks.matches_exact_cubic(_nudged(mu, 7, by=2 * bound), *args)


def test_bit_identity(cube_dos):
    mu = cube_dos.moments.mu
    assert checks.bit_identical(mu, mu.copy(), "mu") == []
    assert checks.bit_identical(_nudged(mu), mu, "mu") == ["mu: 1 element(s) differ from the reference"]
    assert checks.bit_identical(mu[:-1], mu, "mu")


def test_engines_agree_within_tolerance(cube_dos):
    mu = cube_dos.moments.mu
    numpy_mu = compute_dos(paper_cubic_hamiltonian(SIDE, format="csr"), CONFIG).moments.mu
    assert checks.engines_agree(mu, numpy_mu) == []
    assert checks.engines_agree(_nudged(mu), mu) == []
    assert checks.engines_agree(_nudged(mu, by=1e-9), mu)


def test_normalization(cube_dos):
    assert checks.normalized(cube_dos.energies, cube_dos.density) == []
    wrong = dataclasses.replace(cube_dos.moments, mu=_nudged(cube_dos.moments.mu, 0, by=0.01))
    energies, density = dos_from_moments(wrong, cube_dos.rescaling)
    assert checks.normalized(energies, density)


def test_gateway_oracle():
    arrivals = timed_trace(30, seed=1, duration=3.0, deadline_slack=0.5, flash_crowds=1)
    gateway = Gateway(max_active=2, default_policy=TenantPolicy(rate=0.8, burst=2.0))
    responses = gateway.run_trace(arrivals)
    assert checks.gateway_responses(arrivals, responses) == []
    assert checks.gateway_responses(arrivals, responses[:-1])
    answered = next(i for i, r in enumerate(responses) if r.outcome == "served")
    wrong = list(responses)
    wrong[answered] = dataclasses.replace(
        responses[answered], values=np.full_like(responses[answered].values, np.nan)
    )
    assert checks.gateway_responses(arrivals, wrong) == [
        f"{responses[answered].tag}: non-finite density"
    ]
    wrong[answered] = copy.copy(responses[answered])
    wrong[answered].outcome = "pending"  # the response type itself rejects this
    assert checks.gateway_responses(arrivals, wrong)
    assert checks.gateway_responses(arrivals, wrong[::-1])


def test_refine_oracles():
    lattice = cubic(4)
    onsite = anderson_onsite_energies(lattice.num_sites, 2.0, seed=3)
    hamiltonian = tight_binding_hamiltonian(lattice, onsite=onsite)
    orders = (8, 16)
    configs = [KPMConfig(num_moments=n, num_random_vectors=4, seed=2) for n in orders]
    service = SpectralService(("gpu-sim",), cache_capacity=8, tuner=Autotuner())
    responses = []
    for config in configs:
        service.submit(DoSRequest(hamiltonian, config=config))
        responses += service.flush()
    cold = compute_dos(hamiltonian, configs[-1], backend="gpu-sim")
    assert checks.refine_responses(responses, orders) == []
    assert checks.matches_cold(responses[-1], cold) == []

    final = responses[-1]
    wrong_final = dataclasses.replace(
        final, moments=dataclasses.replace(final.moments, mu=_nudged(final.moments.mu))
    )
    assert checks.refine_responses([responses[0], wrong_final], orders)
    assert checks.matches_cold(wrong_final, cold)
    assert checks.refine_responses(responses[:1], orders)
