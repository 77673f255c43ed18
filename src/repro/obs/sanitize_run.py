"""The pinned sanitizer workload: every hot path under instrumentation.

:func:`sanitized_run` drives small pinned versions of the library's
device workloads — the single-GPU DoS pipeline in both storages, the
batching/caching spectral service, the fault-injected multi-GPU cluster
driver, and the Kubo–Greenwood conductivity runner — under one
:class:`~repro.sanitize.DeviceSanitizer`, and returns the combined
:class:`~repro.sanitize.SanitizerReport`.  Everything is seeded and the
simulator executes blocks serially, so two calls produce byte-identical
reports; ``sanitize-baseline.json`` commits the clean report and CI
compares fingerprints against it.

Like :mod:`repro.obs.workloads`, this module stays outside
``repro.obs.__init__`` and defers its cluster/serve/gpukpm imports so
``repro.obs`` itself remains import-light.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.dos import compute_dos
from repro.lattice import paper_cubic_hamiltonian
from repro.sanitize import DeviceSanitizer, SanitizerReport

__all__ = [
    "cross_check_certificate",
    "sanitized_run",
    "SANITIZE_WORKLOAD",
    "SANITIZE_WORKLOAD_NAMES",
]

#: Deterministic parameters of the sanitized workloads (embedded in the
#: report, so a fingerprint pins the exact configuration).
SANITIZE_WORKLOAD = {
    "lattice_side": 4,
    "num_moments": 32,
    "num_random_vectors": 4,
    "num_realizations": 1,
    "block_size": 32,
    "seed": 0,
    "serve_requests": 8,
    "serve_seed": 1,
    "serve_cache_capacity": 16,
    "cluster_devices": 2,
    "cluster_fault_seed": 3,
    "cluster_fault_rate": 0.25,
    "cluster_checkpoint_every": 2,
    "conductivity_side": 3,
    "conductivity_moments": 8,
    "conductivity_vectors": 2,
    "tune_formats": ("csr", "csr-vector", "ell"),
    "tune_vector_width": 4,
}

#: The runnable workload names, in execution order.
SANITIZE_WORKLOAD_NAMES = ("dos", "serve", "cluster", "conductivity", "tune")


def _dos_config() -> KPMConfig:
    return KPMConfig(
        num_moments=SANITIZE_WORKLOAD["num_moments"],
        num_random_vectors=SANITIZE_WORKLOAD["num_random_vectors"],
        num_realizations=SANITIZE_WORKLOAD["num_realizations"],
        block_size=SANITIZE_WORKLOAD["block_size"],
        seed=SANITIZE_WORKLOAD["seed"],
    )


def _run_dos() -> None:
    for storage in ("csr", "dense"):
        hamiltonian = paper_cubic_hamiltonian(
            SANITIZE_WORKLOAD["lattice_side"], format=storage
        )
        compute_dos(hamiltonian, _dos_config(), backend="gpu-sim")


def _run_serve() -> None:
    from repro.serve.service import SpectralService
    from repro.serve.trace import synthetic_trace

    service = SpectralService(
        ("gpu-sim",), cache_capacity=SANITIZE_WORKLOAD["serve_cache_capacity"]
    )
    service.serve(
        synthetic_trace(
            SANITIZE_WORKLOAD["serve_requests"], seed=SANITIZE_WORKLOAD["serve_seed"]
        )
    )


def _run_cluster() -> None:
    from repro.cluster.faults import FaultSchedule
    from repro.cluster.multigpu import MultiGpuKPM
    from repro.kpm.rescale import rescale_operator

    hamiltonian = paper_cubic_hamiltonian(
        SANITIZE_WORKLOAD["lattice_side"], format="csr"
    )
    scaled, _ = rescale_operator(hamiltonian)
    rate = SANITIZE_WORKLOAD["cluster_fault_rate"]
    schedule = FaultSchedule.sample(
        SANITIZE_WORKLOAD["cluster_fault_seed"],
        SANITIZE_WORKLOAD["cluster_devices"],
        crash_rate=rate,
        straggler_rate=rate,
        transfer_rate=rate,
    )
    driver = MultiGpuKPM(
        SANITIZE_WORKLOAD["cluster_devices"],
        fault_schedule=schedule,
        checkpoint_every=SANITIZE_WORKLOAD["cluster_checkpoint_every"],
    )
    driver.compute_moments(scaled, _dos_config())


def _run_conductivity() -> None:
    from repro.gpukpm.conductivity_gpu import GpuConductivity
    from repro.kpm.rescale import rescale_operator

    hamiltonian = paper_cubic_hamiltonian(
        SANITIZE_WORKLOAD["conductivity_side"], format="csr"
    )
    scaled, _ = rescale_operator(hamiltonian)
    config = KPMConfig(
        num_moments=SANITIZE_WORKLOAD["conductivity_moments"],
        num_random_vectors=SANITIZE_WORKLOAD["conductivity_vectors"],
        num_realizations=SANITIZE_WORKLOAD["num_realizations"],
        block_size=SANITIZE_WORKLOAD["block_size"],
        seed=SANITIZE_WORKLOAD["seed"],
    )
    GpuConductivity().run(scaled, scaled, config)


def _run_tune() -> None:
    """Each sparse storage format of ``kpm_recursion`` under the sanitizer.

    There is no standalone SpMV program: ``kpm_recursion`` sweeps the
    uploaded storage through ``DeviceMatrix.matmat``.  The dense storage
    is covered by the ``dos`` workload; this pins CSR (as the ``csr``
    and ``csr-vector`` formats) and ELL explicitly (pinned format, not
    tuner-driven, so coverage cannot silently change when cost models
    shift the tuner's winner).  The cube is rescaled into ``[-1, 1]``.
    """
    from repro.gpukpm.pipeline import GpuKPM
    from repro.kpm.rescale import rescale_operator

    hamiltonian = paper_cubic_hamiltonian(
        SANITIZE_WORKLOAD["lattice_side"], format="csr"
    )
    scaled, _ = rescale_operator(hamiltonian)
    for storage in SANITIZE_WORKLOAD["tune_formats"]:
        width = (
            SANITIZE_WORKLOAD["tune_vector_width"]
            if storage == "csr-vector"
            else None
        )
        kpm = GpuKPM(spmv_format=storage, vector_width=width)
        kpm.compute_moments(scaled, _dos_config())


_RUNNERS = {
    "dos": _run_dos,
    "serve": _run_serve,
    "cluster": _run_cluster,
    "conductivity": _run_conductivity,
    "tune": _run_tune,
}


def sanitized_run(
    *,
    workloads: tuple[str, ...] = SANITIZE_WORKLOAD_NAMES,
    suppress: tuple[str, ...] = (),
    label: str = "sanitize",
) -> SanitizerReport:
    """Run the pinned workloads under a device sanitizer; return the report.

    Parameters
    ----------
    workloads:
        Names from :data:`SANITIZE_WORKLOAD_NAMES`, executed in the
        canonical order regardless of the order given.
    suppress:
        Finding codes (``SANxxx``) routed to the report's suppressed
        list instead of its findings.
    label:
        Report label (embedded in the JSON and its fingerprint).
    """
    for name in workloads:
        if name not in _RUNNERS:
            raise ValidationError(
                f"unknown sanitize workload {name!r}; known: "
                f"{', '.join(SANITIZE_WORKLOAD_NAMES)}"
            )
    sanitizer = DeviceSanitizer(suppress=suppress)
    selected = [name for name in SANITIZE_WORKLOAD_NAMES if name in set(workloads)]
    with sanitizer.activate():
        for name in selected:
            _RUNNERS[name]()
    workload = dict(SANITIZE_WORKLOAD)
    workload["workloads"] = selected
    return sanitizer.report(label=label, workload=workload)


def cross_check_certificate(report: SanitizerReport, certificate: dict) -> list[str]:
    """RA020's dynamic half: did the sanitized run back the proof deferrals?

    The static kernel verifier's certificate
    (:mod:`repro.analysis.kernelver`) records, per kernel, whether its
    safety obligations were *proven* or deferred to dynamic checking
    (status ``"sanitize"`` plus a named workload).  This cross-check
    closes the loop on the deferred half: every deferring kernel's
    workload must have actually run (``workload["workloads"]``), the
    kernel must appear in the report's per-kernel launch counters, and
    the run must be clean.  Returns a list of problem strings — empty
    means the certificate's dynamic obligations are discharged.
    """
    if not isinstance(report, SanitizerReport):
        raise ValidationError(
            f"report must be a SanitizerReport, got {type(report).__name__}"
        )
    problems: list[str] = []
    schema = certificate.get("schema") if isinstance(certificate, dict) else None
    if schema != "repro.kernelver/1":
        return [
            f"unsupported proof-certificate schema {schema!r} "
            "(expected 'repro.kernelver/1')"
        ]
    ran = set(report.workload.get("workloads", ()))
    launched = report.stats.get("kernel_launches", {})
    for entry in certificate.get("kernels", ()):
        name = entry.get("kernel", "?")
        if entry.get("status") == "failed":
            problems.append(
                f"kernel {name!r} is recorded as 'failed' in the certificate; "
                "a failed proof cannot be discharged dynamically"
            )
            continue
        if entry.get("status") != "sanitize":
            continue
        workload = entry.get("sanitize_workload")
        if workload not in SANITIZE_WORKLOAD_NAMES:
            problems.append(
                f"kernel {name!r} defers to unknown sanitize workload "
                f"{workload!r}; known: {', '.join(SANITIZE_WORKLOAD_NAMES)}"
            )
            continue
        if workload not in ran:
            problems.append(
                f"kernel {name!r} defers to sanitize workload {workload!r}, "
                "which this run did not execute"
            )
            continue
        if not launched.get(name):
            problems.append(
                f"kernel {name!r} defers to sanitize workload {workload!r} "
                "but was never launched by the sanitized run"
            )
    if not report.clean and any(
        entry.get("status") == "sanitize" for entry in certificate.get("kernels", ())
    ):
        problems.append(
            f"sanitized run reported {len(report.findings)} finding(s); "
            "dynamic obligations require a clean run"
        )
    return problems
