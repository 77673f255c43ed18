"""The recorded smoke workload: one traced pass over every hot path.

:func:`smoke_run` drives a small-N version of each subsystem — the
single-GPU pipeline (via :func:`repro.kpm.compute_dos`), the multi-GPU
cluster driver, and the batching/caching spectral service — under one
:class:`~repro.trace.tracer.Tracer`, absorbs every
:class:`~repro.timing.TimingReport` / ``ServiceMetrics`` into one
:class:`~repro.obs.metrics.MetricsRegistry`, and returns the combined
:class:`~repro.obs.record.RunRecord`.  Everything is seeded and modeled,
so two calls produce byte-identical records; ``BENCH_PR4.json`` embeds
this workload (plus the Fig 5-8 gauges) as the regression baseline.

This module lives outside ``repro.obs.__init__`` imports on purpose: it
pulls in the cluster and serve layers, keeping ``repro.obs`` itself
import-light and the package boundary acyclic.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.dos import compute_dos
from repro.lattice import paper_cubic_hamiltonian
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import RunRecord
from repro.trace.tracer import Tracer
from repro.serve.service import SpectralService
from repro.serve.trace import synthetic_trace

__all__ = [
    "smoke_run",
    "serve_prefix_run",
    "gateway_run",
    "sparse_crossover_run",
    "SMOKE_WORKLOAD",
    "SERVE_PREFIX_WORKLOAD",
    "GATEWAY_WORKLOAD",
    "SPARSE_CROSSOVER_WORKLOAD",
]

#: Deterministic parameters of the smoke workload (embedded in the record).
SMOKE_WORKLOAD = {
    "lattice_side": 4,
    "num_moments": 32,
    "num_random_vectors": 4,
    "num_realizations": 1,
    "block_size": 32,
    "seed": 0,
    "cluster_devices": 2,
    "serve_requests": 8,
    "serve_seed": 1,
    "serve_cache_capacity": 16,
}


#: Deterministic parameters of the prefix-vs-exact cache A/B workload.
SERVE_PREFIX_WORKLOAD = {
    "requests": 24,
    "seed": 2,
    "cache_capacity": 16,
}


#: Deterministic parameters of the gateway-vs-FIFO overload A/B workload.
#: Deliberately overloaded: two flash crowds at 8x the diurnal rate with
#: ~0.5s deadline slack, so both arms miss deadlines and the gateway's
#: EDF + degradation margin is visible in the goodput gauges.
GATEWAY_WORKLOAD = {
    "requests": 150,
    "seed": 6,
    "tenants": 3,
    "duration": 12.0,
    "deadline_slack": 0.5,
    "flash_crowds": 2,
    "flash_multiplier": 8.0,
    "repeat_bias": 0.85,
    "flush_interval": 1.0,
    "max_active": 3,
    "tenant_rate": 0.8,
    "tenant_burst": 2.0,
}


#: Deterministic parameters of the sparse-vs-dense SpMV crossover A/B.
#: Cube sides 6..12 span D = 216 to 1728, bracketing the paper's
#: D = 1000 regime; ``exec_side`` picks the size that also executes
#: functionally (bit-identity witness), the rest are priced analytically
#: at the full paper moment budget.
SPARSE_CROSSOVER_WORKLOAD = {
    "cube_sides": (6, 8, 10, 12),
    "num_moments": 256,
    "num_random_vectors": 16,
    "exec_side": 6,
    "exec_num_moments": 32,
    "exec_num_random_vectors": 4,
    "seed": 0,
}


def sparse_crossover_run(
    *,
    label: str = "sparse-crossover",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> RunRecord:
    """A/B tuned sparse SpMV against the dense sweep across sizes.

    For each cube side the autotuner prices the full candidate grid and
    the record keeps three gauges per size: the best *dense* candidate,
    the best *sparse* (csr / csr-vector / ell) candidate, and their
    ``speedup`` ratio (dense over sparse — higher is better, so the CI
    gate pins that sparse keeps beating dense at every recorded size,
    in particular at the paper's D >= 1000).  One small size also runs
    functionally twice — dense-pinned and tuner-driven — and the
    ``tune.exec.bit_identical`` gauge witnesses that tuning changed the
    modeled time only, never the moments.  ``BENCH_PR9.json`` embeds
    this record.
    """
    if not isinstance(label, str) or not label:
        raise ValidationError(f"label must be a non-empty string, got {label!r}")
    registry = MetricsRegistry() if registry is None else registry
    tracer = Tracer() if tracer is None else tracer

    import numpy as np

    from repro.gpukpm.pipeline import GpuKPM  # deferred: keep repro.obs import-light
    from repro.kpm.rescale import rescale_operator
    from repro.lattice import cubic, tight_binding_hamiltonian
    from repro.tune.autotuner import Autotuner

    config = KPMConfig(
        num_moments=SPARSE_CROSSOVER_WORKLOAD["num_moments"],
        num_random_vectors=SPARSE_CROSSOVER_WORKLOAD["num_random_vectors"],
        seed=SPARSE_CROSSOVER_WORKLOAD["seed"],
    )
    tuner = Autotuner()

    with tracer.activate():
        with tracer.span("workload.tune_sweep", category="workload"):
            for side in SPARSE_CROSSOVER_WORKLOAD["cube_sides"]:
                hamiltonian = tight_binding_hamiltonian(cubic(side))
                dim = hamiltonian.shape[0]
                points = tuner.sweep(hamiltonian, config)
                dense_best = min(
                    p.modeled_seconds for p in points if p.format == "dense"
                )
                sparse_best = min(
                    p.modeled_seconds for p in points if p.format != "dense"
                )
                registry.set_gauge(f"tune.d{dim}.dense_seconds", dense_best)
                registry.set_gauge(f"tune.d{dim}.sparse_seconds", sparse_best)
                registry.set_gauge(f"tune.d{dim}.speedup", dense_best / sparse_best)

        exec_config = KPMConfig(
            num_moments=SPARSE_CROSSOVER_WORKLOAD["exec_num_moments"],
            num_random_vectors=SPARSE_CROSSOVER_WORKLOAD["exec_num_random_vectors"],
            seed=SPARSE_CROSSOVER_WORKLOAD["seed"],
        )
        exec_op, _ = rescale_operator(
            tight_binding_hamiltonian(cubic(SPARSE_CROSSOVER_WORKLOAD["exec_side"]))
        )
        with tracer.span("workload.exec_dense", category="workload"):
            dense_kpm = GpuKPM(spmv_format="dense")
            dense_moments, _ = dense_kpm.compute_moments(exec_op, exec_config)
        registry.set_gauge(
            "tune.exec.dense_seconds", dense_kpm.last_device.modeled_seconds
        )
        with tracer.span("workload.exec_tuned", category="workload"):
            tuned_kpm = GpuKPM(tuner=tuner)
            tuned_moments, _ = tuned_kpm.compute_moments(exec_op, exec_config)
        registry.set_gauge(
            "tune.exec.tuned_seconds", tuned_kpm.last_device.modeled_seconds
        )
        registry.set_gauge(
            "tune.exec.bit_identical",
            float(np.array_equal(dense_moments.mu, tuned_moments.mu)),
        )
        for name, value in tuner.counters().items():
            registry.set_gauge(name, float(value))

    return RunRecord(
        label=label,
        workload=dict(SPARSE_CROSSOVER_WORKLOAD),
        spans=tracer.finish(),
        metrics=registry,
    )


def gateway_run(
    *,
    label: str = "gateway",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> RunRecord:
    """A/B the v2 gateway against the FIFO baseline under overload.

    Replays one overloaded timed trace through two gateways sharing
    every knob except the serving-v2 levers: the full gateway (EDF +
    degradation) and the v1 baseline (``edf=False, degrade=False`` —
    FIFO order, always full precision, late if need be).  Admission and
    the elastic pool are identical on both sides, so the goodput gap is
    attributable to scheduling and degradation alone.  Records per-arm
    ``goodput_ratio`` / ``p50``/``p99`` modeled latency gauges plus the
    headline ``gateway_ab.goodput_advantage_ratio`` (gateway minus
    FIFO); ``BENCH_PR8.json`` embeds this record and the CI gate pins
    the ratios higher-is-better and the latencies lower-is-better, so
    the gateway can never silently stop out-serving FIFO under
    overload.
    """
    if not isinstance(label, str) or not label:
        raise ValidationError(f"label must be a non-empty string, got {label!r}")
    registry = MetricsRegistry() if registry is None else registry
    tracer = Tracer() if tracer is None else tracer

    from repro.serve.admission import TenantPolicy  # deferred: obs stays import-light
    from repro.serve.gateway import Gateway
    from repro.serve.traffic import timed_trace

    arrivals = timed_trace(
        GATEWAY_WORKLOAD["requests"],
        seed=GATEWAY_WORKLOAD["seed"],
        tenants=GATEWAY_WORKLOAD["tenants"],
        duration=GATEWAY_WORKLOAD["duration"],
        deadline_slack=GATEWAY_WORKLOAD["deadline_slack"],
        flash_crowds=GATEWAY_WORKLOAD["flash_crowds"],
        flash_multiplier=GATEWAY_WORKLOAD["flash_multiplier"],
        repeat_bias=GATEWAY_WORKLOAD["repeat_bias"],
    )
    policy = TenantPolicy(
        rate=GATEWAY_WORKLOAD["tenant_rate"],
        burst=GATEWAY_WORKLOAD["tenant_burst"],
    )

    goodput: dict[str, float] = {}
    with tracer.activate():
        for mode, edf, degrade in (
            ("gateway", True, True),
            ("fifo", False, False),
        ):
            with tracer.span(f"workload.serve_{mode}", category="workload"):
                gateway = Gateway(
                    template=("gpu-sim", "cpu-model"),
                    max_active=GATEWAY_WORKLOAD["max_active"],
                    default_policy=policy,
                    edf=edf,
                    degrade=degrade,
                )
                gateway.run_trace(
                    arrivals,
                    flush_interval=GATEWAY_WORKLOAD["flush_interval"],
                )
            metrics = gateway.gateway_metrics()
            goodput[mode] = metrics.goodput_ratio
            registry.set_gauge(f"{mode}.goodput_ratio", metrics.goodput_ratio)
            registry.set_gauge(
                f"{mode}.p50_latency_seconds", metrics.p50_latency_seconds
            )
            registry.set_gauge(
                f"{mode}.p99_latency_seconds", metrics.p99_latency_seconds
            )
            # Context gauges (no seconds/ratio fragment: recorded for
            # humans, not gated).
            registry.set_gauge(f"{mode}.degraded_requests", float(metrics.degraded))
            registry.set_gauge(f"{mode}.rejected_requests", float(metrics.rejected))
            registry.set_gauge(
                f"{mode}.deadline_miss_requests", float(metrics.deadline_misses)
            )
            registry.set_gauge(
                f"{mode}.peak_engines", float(metrics.peak_active_engines)
            )
    registry.set_gauge(
        "gateway_ab.goodput_advantage_ratio",
        goodput["gateway"] - goodput["fifo"],
    )

    return RunRecord(
        label=label,
        workload=dict(GATEWAY_WORKLOAD),
        spans=tracer.finish(),
        metrics=registry,
    )


def serve_prefix_run(
    *,
    label: str = "serve-prefix",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> RunRecord:
    """A/B the prefix moment cache against exact-order matching.

    Replays one synthetic trace through two otherwise identical services
    — the default prefix cache and the PR 3 exact-order matcher
    (``prefix_cache=False``) — and records both metric families plus the
    headline ``serve_ab.hit_rate_advantage`` gauge (prefix minus exact
    hit-rate).  The trace's workload pool contains same-identity configs
    differing only in ``num_moments``, so the advantage is structurally
    positive; ``BENCH_PR7.json`` embeds this record and the CI gate pins
    the rates (higher-is-better direction), so the prefix cache can
    never silently stop out-hitting exact matching on mixed orders.
    """
    if not isinstance(label, str) or not label:
        raise ValidationError(f"label must be a non-empty string, got {label!r}")
    registry = MetricsRegistry() if registry is None else registry
    tracer = Tracer() if tracer is None else tracer

    rates: dict[str, float] = {}
    with tracer.activate():
        for mode, prefix in (("prefix", True), ("exact", False)):
            with tracer.span(f"workload.serve_{mode}", category="workload"):
                service = SpectralService(
                    ("gpu-sim",),
                    cache_capacity=SERVE_PREFIX_WORKLOAD["cache_capacity"],
                    prefix_cache=prefix,
                )
                # Sequential arrival (one flush per request): repeats
                # must go through the cache, not batch coalescing — the
                # regime the prefix-vs-exact comparison is about.
                for request in synthetic_trace(
                    SERVE_PREFIX_WORKLOAD["requests"],
                    seed=SERVE_PREFIX_WORKLOAD["seed"],
                ):
                    service.submit(request)
                    service.flush()
            metrics = service.metrics()
            rates[mode] = metrics.cache_hit_rate()
            registry.absorb_service_metrics(metrics, prefix=f"serve_{mode}")
    registry.set_gauge(
        "serve_ab.hit_rate_advantage", rates["prefix"] - rates["exact"]
    )

    return RunRecord(
        label=label,
        workload=dict(SERVE_PREFIX_WORKLOAD),
        spans=tracer.finish(),
        metrics=registry,
    )


def smoke_run(
    *,
    label: str = "smoke",
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> RunRecord:
    """Trace the gpu / cluster / serve smoke workload into one record.

    Parameters
    ----------
    label:
        Record label (``"smoke"`` by default; the bench baseline passes
        ``"bench-baseline"``).
    registry:
        Optional pre-populated registry to absorb the workload metrics
        into (the bench runner seeds it with the Fig 5-8 gauges).
    tracer:
        Optional tracer to record under; a fresh one by default.  Must
        have no open spans.
    """
    if not isinstance(label, str) or not label:
        raise ValidationError(f"label must be a non-empty string, got {label!r}")
    registry = MetricsRegistry() if registry is None else registry
    tracer = Tracer() if tracer is None else tracer

    from repro.cluster.multigpu import MultiGpuKPM  # deferred: keep repro.obs import-light
    from repro.kpm.rescale import rescale_operator

    hamiltonian = paper_cubic_hamiltonian(SMOKE_WORKLOAD["lattice_side"], format="csr")
    config = KPMConfig(
        num_moments=SMOKE_WORKLOAD["num_moments"],
        num_random_vectors=SMOKE_WORKLOAD["num_random_vectors"],
        num_realizations=SMOKE_WORKLOAD["num_realizations"],
        block_size=SMOKE_WORKLOAD["block_size"],
        seed=SMOKE_WORKLOAD["seed"],
    )

    with tracer.activate():
        with tracer.span("workload.gpu", category="workload"):
            result = compute_dos(hamiltonian, config, backend="gpu-sim")
        registry.absorb_timing_report(result.timing)

        with tracer.span("workload.cluster", category="workload"):
            scaled, _ = rescale_operator(hamiltonian)
            cluster = MultiGpuKPM(SMOKE_WORKLOAD["cluster_devices"])
            _, cluster_report = cluster.compute_moments(scaled, config)
        registry.absorb_timing_report(cluster_report, prefix="timing.cluster")

        with tracer.span("workload.serve", category="workload"):
            service = SpectralService(
                ("gpu-sim",), cache_capacity=SMOKE_WORKLOAD["serve_cache_capacity"]
            )
            service.serve(
                synthetic_trace(
                    SMOKE_WORKLOAD["serve_requests"], seed=SMOKE_WORKLOAD["serve_seed"]
                )
            )
        registry.absorb_service_metrics(service.metrics())

    return RunRecord(
        label=label,
        workload=dict(SMOKE_WORKLOAD),
        spans=tracer.finish(),
        metrics=registry,
    )
