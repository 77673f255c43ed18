"""Command-line interface: ``python -m repro <subcommand>``.

Three subcommands cover the library's day-to-day uses without writing
Python:

* ``dos``    — compute a density of states (built-in lattice or a
  MatrixMarket file) on any backend; CSV to stdout or a file.
* ``time``   — modeled CPU/GPU execution times for a parameter set
  (the paper's tables for arbitrary workloads).
* ``bench``  — alias of :mod:`repro.bench`'s figure harness.
* ``serve-sim`` — replay a synthetic request trace through the
  :mod:`repro.serve` service layer and report batching/caching wins.
* ``obs``    — record a traced run / gate modeled-cost regressions
  against the committed baseline (see docs/OBSERVABILITY.md).
* ``sanitize`` — run the pinned workloads under the device memory/race
  sanitizer and compare against ``sanitize-baseline.json`` (see
  docs/SANITIZER.md).
* ``tune``   — inspect matrix structure, sweep SpMV kernel candidates,
  and maintain a persistent tuning cache (see docs/TUNING.md).

``dos``, ``cluster``, and ``serve-sim`` accept ``--trace-out FILE`` to
record the run's deterministic span tree as a
:class:`~repro.obs.record.RunRecord` JSON.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import KPMConfig, compute_dos
from repro.bench.report import ascii_table
from repro.cluster import (
    GIGABIT_ETHERNET,
    INFINIBAND_QDR,
    FaultSchedule,
    MultiGpuKPM,
    RetryPolicy,
)
from repro.cpu import CORE_I7_930, estimate_cpu_kpm_seconds
from repro.errors import ReproError
from repro.gpu import TESLA_C2050
from repro.gpukpm import GpuKPM
from repro.kpm import (
    available_backends,
    available_kernels,
    rescale_operator,
    validate_spectral_operator,
)
from repro.lattice import (
    chain,
    cubic,
    honeycomb_edges,
    hamiltonian_from_edges,
    kagome_edges,
    square,
    tight_binding_hamiltonian,
)
from repro.sparse import StorageCost, read_matrix_market

__all__ = ["main", "build_hamiltonian_from_args"]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--moments", "-N", type=int, default=256, help="N, truncation order")
    parser.add_argument("--vectors", "-R", type=int, default=16, help="R, random vectors")
    parser.add_argument("--realizations", "-S", type=int, default=1, help="S, realizations")
    parser.add_argument("--kernel", default="jackson", choices=available_kernels())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block-size", type=int, default=256, help="GPU BLOCK_SIZE")
    parser.add_argument(
        "--precision", default="double", choices=("double", "single")
    )


def _config_from_args(args) -> KPMConfig:
    return KPMConfig(
        num_moments=args.moments,
        num_random_vectors=args.vectors,
        num_realizations=args.realizations,
        kernel=args.kernel,
        seed=args.seed,
        block_size=args.block_size,
        precision=args.precision,
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record the run's span tree as a RunRecord JSON",
    )


def _run_traced(args) -> int:
    """Run the selected command under a tracer when ``--trace-out`` is set."""
    from repro.obs import RunRecord, Tracer, write_run_record

    tracer = Tracer()
    with tracer.activate():
        with tracer.span(f"cli.{args.command}", category="cli"):
            status = args.func(args)
    record = RunRecord(
        label=f"cli-{args.command}",
        workload={"command": args.command},
        spans=tracer.finish(),
    )
    write_run_record(record, args.trace_out)
    print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    return status


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lattice",
        metavar="SPEC",
        help=(
            "built-in lattice: chain:L, square:W[,H], cubic:L (the paper's "
            "workload is cubic:10), honeycomb:C,R, kagome:C,R"
        ),
    )
    group.add_argument("--matrix", metavar="FILE", help="MatrixMarket .mtx file")
    parser.add_argument(
        "--storage", default="csr", choices=("csr", "dense"), help="matrix storage"
    )


def build_hamiltonian_from_args(args):
    """Construct the Hamiltonian selected by ``--lattice`` / ``--matrix``."""
    if args.matrix is not None:
        return read_matrix_market(args.matrix, format=args.storage)
    kind, _, params = args.lattice.partition(":")
    numbers = [int(p) for p in params.split(",") if p] if params else []
    kind = kind.lower()
    if kind == "chain":
        return tight_binding_hamiltonian(chain(*numbers or [64]), format=args.storage)
    if kind == "square":
        return tight_binding_hamiltonian(square(*numbers or [16]), format=args.storage)
    if kind == "cubic":
        return tight_binding_hamiltonian(cubic(*numbers or [10]), format=args.storage)
    if kind == "honeycomb":
        n, i, j = honeycomb_edges(*(numbers or [8, 8]))
        return hamiltonian_from_edges(n, i, j, format=args.storage)
    if kind == "kagome":
        n, i, j = kagome_edges(*(numbers or [8, 8]))
        return hamiltonian_from_edges(n, i, j, format=args.storage)
    raise ReproError(
        f"unknown lattice kind {kind!r}; use chain/square/cubic/honeycomb/kagome"
    )


def _cmd_dos(args) -> int:
    hamiltonian = build_hamiltonian_from_args(args)
    config = _config_from_args(args)
    result = compute_dos(hamiltonian, config, backend=args.backend)
    lines = ["energy,density"]
    lines += [
        f"{float(e)!r},{float(d)!r}"
        for e, d in zip(result.energies, result.density)
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
        print(f"wrote {len(result.energies)} points to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(
        f"# integral={result.integrate():.6f} resolution={result.energy_resolution():.4g} "
        f"{result.timing.summary()}",
        file=sys.stderr,
    )
    return 0


def _cmd_time(args) -> int:
    hamiltonian = build_hamiltonian_from_args(args)
    config = _config_from_args(args)
    dim = hamiltonian.shape[0]
    # Both rows price the operator `dos` runs on that backend: same
    # rescaling (a shift stores the missing diagonal), same storage.
    scaled, _ = rescale_operator(
        validate_spectral_operator(hamiltonian),
        method=config.bounds_method,
        epsilon=config.epsilon,
    )
    storage = StorageCost.of(scaled, precision=config.precision)
    rows = [
        (
            "cpu (Core i7 930)",
            estimate_cpu_kpm_seconds(CORE_I7_930, dim, config, storage=storage),
        ),
        (
            "gpu (Tesla C2050)",
            GpuKPM(TESLA_C2050).estimate_modeled_seconds(scaled, config),
        ),
    ]
    rows.append(("speedup", rows[0][1] / rows[1][1]))
    print(f"D={dim} N={config.num_moments} R*S={config.total_vectors} "
          f"storage={args.storage} precision={config.precision}")
    print(ascii_table(("target", "modeled_seconds"), rows))
    return 0


def _cmd_cluster(args) -> int:
    hamiltonian = build_hamiltonian_from_args(args)
    config = _config_from_args(args)
    scaled, _ = rescale_operator(hamiltonian)
    interconnect = (
        INFINIBAND_QDR if args.interconnect == "infiniband" else GIGABIT_ETHERNET
    )
    schedule = FaultSchedule.sample(
        args.fault_seed,
        args.devices,
        crash_rate=args.fault_rate,
        straggler_rate=args.fault_rate,
        transfer_rate=args.fault_rate,
    )
    driver = MultiGpuKPM(
        args.devices,
        interconnect=interconnect,
        fault_schedule=schedule,
        policy=RetryPolicy(max_retries=args.max_retries),
        checkpoint_every=args.checkpoint_every,
    )
    data, report = driver.compute_moments(scaled, config)
    print(
        f"D={scaled.shape[0]} N={config.num_moments} R*S={config.total_vectors} "
        f"devices={args.devices} faults={schedule.num_faults} "
        f"(rate {args.fault_rate}, seed {args.fault_seed})"
    )
    print(ascii_table(("phase", "modeled_seconds"), list(report.breakdown.items())))
    print(f"mu_0 = {data.mu[0]:.6f} (should be ~1)")
    print(report.summary())
    if args.verify:
        reference, _ = MultiGpuKPM(
            args.devices, interconnect=interconnect
        ).compute_moments(scaled, config)
        identical = bool(
            np.array_equal(reference.mu, data.mu)
            and np.array_equal(reference.per_realization, data.per_realization)
        )
        print(f"bit-identical to the fault-free run: {identical}")
        if not identical:
            return 1
    return 0


def _cmd_serve_sim(args) -> int:
    from repro.serve import SpectralService, synthetic_trace

    if args.trace == "gateway":
        return _serve_sim_gateway(args)
    trace = synthetic_trace(
        args.requests,
        seed=args.seed,
        repeat_bias=args.repeat_bias,
        green_fraction=args.green_fraction,
        ldos_fraction=args.ldos_fraction,
    )
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    service = SpectralService(
        backends,
        cache_capacity=args.cache_capacity,
        max_batch_size=args.max_batch_size,
    )
    window = args.window if args.window else len(trace)
    served = 0
    for start in range(0, len(trace), window):
        for request in trace[start : start + window]:
            service.submit(request)
        served += len(service.flush())
    metrics = service.metrics()
    print(
        f"replayed {served} requests (seed {args.seed}, repeat bias "
        f"{args.repeat_bias}) over backends: {', '.join(backends)}"
    )
    rows = [
        ("requests", metrics.requests_total),
        ("batches", metrics.batches_total),
        ("coalesced requests", metrics.coalesced_requests),
        ("cache hits", metrics.cache_hits),
        ("cache misses", metrics.cache_misses),
        ("cache hit rate", metrics.cache_hit_rate()),
        ("engine dispatches", metrics.engine_dispatches),
        ("modeled served (s)", metrics.modeled_served_seconds),
        ("modeled naive (s)", metrics.modeled_naive_seconds),
        ("modeled speedup (x)", metrics.modeled_speedup()),
    ]
    print(ascii_table(("metric", "value"), rows))
    print(metrics.summary())
    return 0


def _serve_sim_gateway(args) -> int:
    """The ``--trace gateway`` arm: timed multi-tenant replay."""
    from repro.serve import Gateway, timed_trace

    arrivals = timed_trace(
        args.requests,
        seed=args.seed,
        tenants=args.tenants,
        repeat_bias=args.repeat_bias,
        green_fraction=args.green_fraction,
        ldos_fraction=args.ldos_fraction,
    )
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    gateway = Gateway(
        template=backends,
        cache_capacity=args.cache_capacity,
        max_batch_size=args.max_batch_size,
    )
    responses = gateway.run_trace(arrivals)
    metrics = gateway.gateway_metrics()
    print(
        f"replayed {len(responses)} timed requests across {args.tenants} "
        f"tenant(s) (seed {args.seed}) over template: {', '.join(backends)}"
    )
    rows = [
        ("offered", metrics.offered),
        ("served", metrics.served),
        ("degraded", metrics.degraded),
        ("rejected", metrics.rejected),
        ("cancelled", metrics.cancelled),
        ("deadline misses", metrics.deadline_misses),
        ("goodput ratio", metrics.goodput_ratio),
        ("p50 latency (s)", metrics.p50_latency_seconds),
        ("p99 latency (s)", metrics.p99_latency_seconds),
        ("modeled clock (s)", metrics.clock_seconds),
        ("active engines", metrics.active_engines),
        ("peak engines", metrics.peak_active_engines),
    ]
    print(ascii_table(("metric", "value"), rows))
    for tenant in sorted(metrics.per_tenant):
        counters = metrics.per_tenant[tenant]
        print(
            f"  {tenant}: admitted={counters['admitted']:.0f} "
            f"rejected={counters['rejected']:.0f} "
            f"consumed={counters['consumed_seconds']:.3f}s"
        )
    print(metrics.summary())
    return 0


def _cmd_sanitize(args) -> int:
    from repro.obs.sanitize_run import (
        SANITIZE_WORKLOAD_NAMES,
        cross_check_certificate,
        sanitized_run,
    )
    from repro.sanitize import load_sanitizer_report, write_sanitizer_report

    names = (
        SANITIZE_WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    )
    report = sanitized_run(
        workloads=tuple(names), suppress=tuple(args.suppress)
    )
    counts = report.counts_by_code()
    rows = [(code, counts[code]) for code in sorted(counts)]
    rows += sorted(report.stats.items())
    print(
        f"sanitized workloads: {', '.join(names)} -> "
        f"{len(report.findings)} finding(s), {len(report.suppressed)} suppressed"
    )
    print(ascii_table(("check", "count"), rows))
    for finding in report.findings:
        print(finding.render())
    if args.out:
        write_sanitizer_report(report, args.out)
        print(f"wrote sanitizer report to {args.out}", file=sys.stderr)
    if args.check_baseline:
        baseline = load_sanitizer_report(args.check_baseline)
        if baseline.fingerprint() != report.fingerprint():
            print(
                f"sanitizer report drifted from baseline {args.check_baseline}: "
                f"{report.fingerprint()} != {baseline.fingerprint()}",
                file=sys.stderr,
            )
            return 1
        print(f"matches baseline {args.check_baseline}", file=sys.stderr)
    if args.certificate:
        import json

        try:
            with open(args.certificate, "r", encoding="ascii") as handle:
                certificate = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"cannot read proof certificate {args.certificate!r}: {exc}",
                file=sys.stderr,
            )
            return 1
        problems = cross_check_certificate(report, certificate)
        for problem in problems:
            print(f"certificate cross-check: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"certificate {args.certificate}: dynamic obligations discharged",
            file=sys.stderr,
        )
    return 0 if report.clean else 1


def main(argv=None) -> int:
    """Entry point of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GPU-accelerated Kernel Polynomial Method (Zhang et al. 2011), reproduced.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    dos = subparsers.add_parser("dos", help="compute a density of states")
    _add_matrix_arguments(dos)
    _add_config_arguments(dos)
    dos.add_argument("--backend", default="numpy", choices=available_backends())
    dos.add_argument("--output", "-o", default=None, help="CSV output file")
    _add_trace_argument(dos)
    dos.set_defaults(func=_cmd_dos)

    time_cmd = subparsers.add_parser(
        "time", help="modeled CPU/GPU execution times for a workload"
    )
    _add_matrix_arguments(time_cmd)
    _add_config_arguments(time_cmd)
    time_cmd.set_defaults(func=_cmd_time)

    cluster = subparsers.add_parser(
        "cluster",
        help="fault-tolerant multi-GPU run with a seeded fault campaign",
    )
    _add_matrix_arguments(cluster)
    _add_config_arguments(cluster)
    cluster.add_argument("--devices", "-G", type=int, default=4, help="cluster size")
    cluster.add_argument(
        "--interconnect",
        default="infiniband",
        choices=("infiniband", "ethernet"),
        help="network model between nodes",
    )
    cluster.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-node Bernoulli rate for each fault kind (crash/straggler/transfer)",
    )
    cluster.add_argument(
        "--fault-seed", type=int, default=0, help="seed of the sampled fault schedule"
    )
    cluster.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="vectors per checkpoint chunk (default: one chunk per partition)",
    )
    cluster.add_argument(
        "--max-retries", type=int, default=8, help="recovery-action budget"
    )
    cluster.add_argument(
        "--verify",
        action="store_true",
        help="re-run fault-free and check the moments are bit-identical",
    )
    _add_trace_argument(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    serve_sim = subparsers.add_parser(
        "serve-sim",
        help="replay a synthetic request trace through the serving layer",
    )
    serve_sim.add_argument(
        "--requests", "-n", type=int, default=200, help="trace length"
    )
    serve_sim.add_argument("--seed", type=int, default=0, help="trace seed")
    serve_sim.add_argument(
        "--repeat-bias",
        type=float,
        default=0.75,
        help="probability a request repeats an already-seen workload",
    )
    serve_sim.add_argument(
        "--green-fraction", type=float, default=0.15, help="Green's-function share"
    )
    serve_sim.add_argument(
        "--ldos-fraction", type=float, default=0.1, help="local-DoS share"
    )
    serve_sim.add_argument(
        "--backends",
        default="gpu-sim",
        help="comma-separated engine pool (e.g. gpu-sim,numpy,cluster)",
    )
    serve_sim.add_argument(
        "--cache-capacity", type=int, default=128, help="moment-cache entries (0 disables)"
    )
    serve_sim.add_argument(
        "--max-batch-size", type=int, default=None, help="largest coalesced batch"
    )
    serve_sim.add_argument(
        "--window",
        type=int,
        default=25,
        help="requests admitted per flush (0 = single flush; smaller windows "
        "exercise the cache, larger ones the coalescer)",
    )
    serve_sim.add_argument(
        "--trace",
        default="fifo",
        choices=("fifo", "gateway"),
        help="fifo = v1 untimed trace through SpectralService; gateway = "
        "timed multi-tenant trace through the v2 Gateway (EDF, admission, "
        "degradation, elastic pool)",
    )
    serve_sim.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="tenant population of the gateway trace (Zipf-skewed volume)",
    )
    _add_trace_argument(serve_sim)
    serve_sim.set_defaults(func=_cmd_serve_sim)

    sanitize = subparsers.add_parser(
        "sanitize",
        help="run the pinned workloads under the device memory/race sanitizer",
    )
    sanitize.add_argument(
        "--workload",
        default="all",
        choices=("all", "dos", "serve", "cluster", "conductivity", "tune"),
        help="which pinned workload to instrument (default: all)",
    )
    sanitize.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="route findings with this SANxxx code to the suppressed list "
        "(repeatable)",
    )
    sanitize.add_argument(
        "--out", default=None, metavar="FILE", help="write the report JSON here"
    )
    sanitize.add_argument(
        "--check-baseline",
        default=None,
        metavar="FILE",
        help="fail (exit 1) unless the report fingerprint matches this "
        "committed report",
    )
    sanitize.add_argument(
        "--certificate",
        default=None,
        metavar="FILE",
        help="cross-check the static verifier's proof certificate: every "
        "kernel deferring to a sanitize workload must have run clean here",
    )
    sanitize.set_defaults(func=_cmd_sanitize)

    bench = subparsers.add_parser("bench", help="regenerate the paper's figures")
    bench.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    bench.add_argument("--csv-dir", default=None)
    bench.add_argument("--no-plots", action="store_true")

    from repro.obs.cli import add_obs_parser

    add_obs_parser(subparsers)

    from repro.tune.cli import add_tune_parser

    add_tune_parser(subparsers)

    args = parser.parse_args(argv)
    if args.command == "bench":
        from repro.bench.__main__ import main as bench_main

        forwarded = list(args.ids)
        if args.csv_dir:
            forwarded += ["--csv-dir", args.csv_dir]
        if args.no_plots:
            forwarded += ["--no-plots"]
        return bench_main(forwarded)
    try:
        if getattr(args, "trace_out", None):
            return _run_traced(args)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
