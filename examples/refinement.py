"""Refine one DoS three ways, each equal to its cold run byte for byte.

The Chebyshev recursion can resume from its last two vectors per random
vector, kept in a ``RecursionState``, so raising the truncation order
never replays the orders already computed.  Three paths refine the DoS
of the 6^3 cube from N = 32 to N = 128:

1. ``SpectralDensity.add_moments`` on the host;
2. ``SpectralService(("gpu-sim",)).serve_refined``, which answers from
   a cached prefix and streams refined tiers;
3. a state captured on the numpy engine, extended on gpu-sim.

Exits 1 unless every answer equals its cold run byte for byte.

Run:  python examples/refinement.py
"""

import sys

import numpy as np

from repro import KPMConfig, compute_dos
from repro.gpukpm import GpuKPM
from repro.kpm import rescale_operator
from repro.kpm.engines import NumpyEngine
from repro.kpm.incremental import SpectralDensity
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.serve import DoSRequest, SpectralService

START, TARGET = 32, 128


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def host_density(hamiltonian) -> bool:
    """Path 1: add moments to a host SpectralDensity."""
    refined = SpectralDensity(hamiltonian, num_moments=START, seed=7)
    refined.add_vectors(5).add_vectors(3).add_moments(TARGET - START)
    cold = SpectralDensity(hamiltonian, num_moments=TARGET, seed=7)
    cold.add_vectors(5).add_vectors(3)
    ok = same(refined.moments().mu, cold.moments().mu)
    ok &= same(refined.dos()[1], cold.dos()[1])
    print(f"1. SpectralDensity N={START} -> {refined.num_moments}: "
          f"{refined.matvecs_performed} matvecs (cold: {cold.matvecs_performed}), "
          f"equal to the cold run: {ok}")
    return ok


def served_tiers(hamiltonian, config) -> bool:
    """Path 2: a gpu-sim service refines its cached prefix tier by tier."""
    service = SpectralService(("gpu-sim",))
    service.serve([DoSRequest(hamiltonian, config.with_updates(num_moments=START))])
    tiers = []
    [final] = service.serve_refined(
        [DoSRequest(hamiltonian, config)], on_tier=tiers.extend
    )
    ok = True
    for response in tiers + [final]:
        order = response.num_moments_served
        cold = compute_dos(
            hamiltonian, config.with_updates(num_moments=order), backend="gpu-sim"
        )
        ok &= same(response.values, cold.density)
    orders = [r.num_moments_served for r in tiers + [final]]
    print(f"2. serve_refined on gpu-sim, tiers at N={orders} "
          f"({service.metrics().cache_extensions} extensions), "
          f"each equal to the cold run: {ok}")
    return ok


def cross_engine(hamiltonian, config) -> bool:
    """Path 3: capture on numpy, extend on gpu-sim."""
    scaled, _ = rescale_operator(hamiltonian)
    short = config.with_updates(num_moments=START)
    data, _, state = NumpyEngine().compute_moments_resumable(scaled, short)
    extended, report, _ = GpuKPM().extend_moments(scaled, config, data, state)
    cold, cold_report = GpuKPM().compute_moments(scaled, config)
    ok = same(extended.mu, cold.mu) and same(
        extended.per_realization, cold.per_realization
    )
    print(f"3. numpy state (pair {state.pair.shape}) extended on gpu-sim: "
          f"{report.modeled_seconds:.6f} modeled s against "
          f"{cold_report.modeled_seconds:.6f} cold, equal to the cold run: {ok}")
    return ok


def main() -> int:
    hamiltonian = tight_binding_hamiltonian(cubic(6), format="csr")
    config = KPMConfig(num_moments=TARGET, num_random_vectors=4, num_realizations=2,
                       seed=11)
    results = [
        host_density(hamiltonian),
        served_tiers(hamiltonian, config),
        cross_engine(hamiltonian, config),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
