"""The four benchmark workloads, driven through the library's public API.

Parameters live here on purpose and are never imported from the
program: a change to the program must not change the benchmark.  Every
input is derived from the run seed with :func:`derive`.

A workload object offers:

``setup()``
    Build the long-lived program objects (timed as set-up).
``generate(index)``
    Make the inputs of operation ``index`` (timed as ``gen_s``).
``run(inputs)``
    The timed operation.
``reference(inputs)``
    A second timed call on the same inputs, every ``reference_every``
    operations (paper-dos only: the plain numpy host engine).
``check(index, inputs, output, reference)``
    The oracle: a list of problems, empty when the output is correct.
``observe(output)``
    Modeled results and public counters of the operation.
"""

from __future__ import annotations

import hashlib

from repro import KPMConfig, compute_dos
from repro.cluster import FaultSchedule, MultiGpuKPM
from repro.kpm import rescale_operator
from repro.lattice import (
    anderson_onsite_energies,
    cubic,
    paper_cubic_hamiltonian,
    tight_binding_hamiltonian,
)
from repro.serve import DoSRequest, Gateway, SpectralService, TenantPolicy, timed_trace
from repro.tune import Autotuner

import checks

#: The ``ops`` counts below are planned for runs of this many seconds
#: (they take 18-27 s on the reference host, see README.md); ``--seconds``
#: scales them linearly.
REFERENCE_SECONDS = 20.0


def derive(seed: int, *parts) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``parts``."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


class _Workload:
    name = ""
    ops = 0
    reference_every = None

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def reference(self, inputs):
        raise NotImplementedError

    def observe(self, output) -> dict[str, float]:
        return {}


class PaperDos(_Workload):
    """The paper's problem: DoS of the periodic 10^3 cube, N=256, R=16, S=1."""

    name = "paper-dos"
    ops = 100
    reference_every = 5
    SIDE = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = KPMConfig(
            num_moments=256,
            num_random_vectors=16,
            num_realizations=1,
            seed=derive(seed, self.name),
        )
        self.hamiltonian = None
        self.first_mu = None

    def generate(self, index):
        if self.hamiltonian is None:
            self.hamiltonian = paper_cubic_hamiltonian(self.SIDE, format="csr")
        return self.hamiltonian

    def run(self, hamiltonian):
        return compute_dos(hamiltonian, self.config, backend="gpu-sim")

    def reference(self, hamiltonian):
        return compute_dos(hamiltonian, self.config, backend="numpy")

    def check(self, index, hamiltonian, result, reference):
        mu = result.moments.mu
        problems = checks.normalized(result.energies, result.density)
        if self.first_mu is None:
            self.first_mu = mu
            problems += checks.matches_exact_cubic(
                mu, result.rescaling, self.SIDE, self.config.total_vectors
            )
        else:
            problems += checks.bit_identical(mu, self.first_mu, "gpu-sim moments vs op 0")
        if reference is not None:
            problems += checks.engines_agree(mu, reference.moments.mu)
        return problems

    def observe(self, result):
        return {"modeled_s": result.timing.modeled_seconds}


class GatewayBurst(_Workload):
    """A fresh multi-tenant gateway replays one overloaded timed trace."""

    name = "gateway-burst"
    ops = 200
    ARRIVALS = 150
    TRACE = {
        "tenants": 3,
        "duration": 12.0,
        "deadline_slack": 0.5,
        "flash_crowds": 2,
        "flash_multiplier": 8.0,
        "repeat_bias": 0.85,
    }
    FLUSH_INTERVAL = 1.0

    def setup(self):
        self.policy = TenantPolicy(rate=0.8, burst=2.0)

    def generate(self, index):
        return timed_trace(
            self.ARRIVALS, seed=derive(self.seed, self.name, index), **self.TRACE
        )

    def run(self, arrivals):
        gateway = Gateway(
            template=("gpu-sim", "cpu-model"), max_active=3, default_policy=self.policy
        )
        return gateway, gateway.run_trace(arrivals, flush_interval=self.FLUSH_INTERVAL)

    def check(self, index, arrivals, output, reference):
        return checks.gateway_responses(arrivals, output[1])

    def observe(self, output):
        gateway = output[0]
        served = gateway.gateway_metrics()
        service = gateway.metrics()
        return {
            "goodput_ratio": served.goodput_ratio,
            "p99_s": served.p99_latency_seconds,
            "cache_hits": service.cache_hits,
            "cache_misses": service.cache_misses,
            "cache_extensions": service.cache_extensions,
            "coalesced": service.coalesced_requests,
            "requests": service.requests_total,
        }


class RefineStream(_Workload):
    """One long-lived tuned service refines fresh disordered cubes N=32..256."""

    name = "refine-stream"
    ops = 200
    SIDE = 8
    DISORDER = 2.0
    ORDERS = (32, 64, 128, 256)
    COLD_CHECKS = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.configs = [
            KPMConfig(num_moments=n, num_random_vectors=16, seed=derive(seed, self.name))
            for n in self.ORDERS
        ]
        self.lattice = None
        self.last = {}

    def setup(self):
        self.tuner = Autotuner()
        self.service = SpectralService(("gpu-sim",), cache_capacity=8, tuner=self.tuner)

    def generate(self, index):
        if self.lattice is None:
            self.lattice = cubic(self.SIDE)
        onsite = anderson_onsite_energies(
            self.lattice.num_sites, self.DISORDER, seed=derive(self.seed, self.name, index)
        )
        hamiltonian = tight_binding_hamiltonian(self.lattice, onsite=onsite)
        return hamiltonian, [DoSRequest(hamiltonian, config=c) for c in self.configs]

    def run(self, inputs):
        responses = []
        for request in inputs[1]:
            self.service.submit(request)
            responses += self.service.flush()
        return responses

    def check(self, index, inputs, responses, reference):
        problems = checks.refine_responses(responses, self.ORDERS)
        if not problems and index < self.COLD_CHECKS:
            cold = compute_dos(inputs[0], self.configs[-1], backend="gpu-sim")
            problems += checks.matches_cold(responses[-1], cold)
        return problems

    def observe(self, responses):
        service = self.service.metrics()
        tuner = self.tuner.counters()
        now = {
            "cache_hits": service.cache_hits,
            "cache_misses": service.cache_misses,
            "cache_extensions": service.cache_extensions,
            "coalesced": service.coalesced_requests,
            "requests": service.requests_total,
            "tune_hits": tuner["tune.choose.hits"],
            "tune_choices": tuner["tune.choose.hits"] + tuner["tune.choose.misses"],
        }
        delta = {key: value - self.last.get(key, 0) for key, value in now.items()}
        self.last = now
        delta["modeled_s"] = sum(r.modeled_seconds for r in responses)
        return delta


class ClusterFaults(_Workload):
    """Checkpointed 4-device cluster under a sampled fault campaign."""

    name = "cluster-faults"
    ops = 100
    SIDE = 8
    DEVICES = 4
    FAULT_RATES = {"crash_rate": 0.25, "straggler_rate": 0.25, "transfer_rate": 0.25}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = KPMConfig(
            num_moments=256, num_random_vectors=16, seed=derive(seed, self.name)
        )
        self.scaled = None
        self.fault_free_mu = None

    def generate(self, index):
        if self.scaled is None:
            hamiltonian = paper_cubic_hamiltonian(self.SIDE, format="csr")
            self.scaled = rescale_operator(hamiltonian)[0]
        schedule = FaultSchedule.sample(
            derive(self.seed, self.name, index), self.DEVICES, **self.FAULT_RATES
        )
        return self.scaled, schedule

    def run(self, inputs):
        scaled, schedule = inputs
        cluster = MultiGpuKPM(self.DEVICES, checkpoint_every=2, fault_schedule=schedule)
        return cluster.compute_moments(scaled, self.config)

    def check(self, index, inputs, output, reference):
        if self.fault_free_mu is None:
            reference_data, _ = MultiGpuKPM(self.DEVICES).compute_moments(
                inputs[0], self.config
            )
            self.fault_free_mu = reference_data.mu
        return checks.bit_identical(output[0].mu, self.fault_free_mu, "moments vs fault-free run")

    def observe(self, output):
        report = output[1]
        return {
            "modeled_s": report.modeled_seconds,
            "recovery_s": report.breakdown.get("recovery", 0.0),
        }


WORKLOADS = {w.name: w for w in (PaperDos, GatewayBurst, RefineStream, ClusterFaults)}
