"""Regeneration of every figure in the paper's evaluation (Sec. IV).

The paper has four figures and no tables:

* :func:`fig5` — execution time + speedup vs ``N`` on the physical
  workload (10x10x10 cubic lattice, ``D = 1000``).
* :func:`fig6` — DoS at ``N = 256`` vs ``N = 512`` on that lattice.
* :func:`fig7` — time + speedup vs ``N`` at ``H_SIZE = 128``
  (compute-amortization sweep).
* :func:`fig8` — time + speedup vs ``H_SIZE`` at ``N = 128``
  (memory-pressure sweep).

plus the ablations DESIGN.md §5 lists for the paper's stated future work
and design choices.  Timing curves use the analytic estimators at the
full paper parameters (exactness w.r.t. the simulator is pinned by
tests); the fig6 DoS uses a functional run at reduced stochastic
sampling, which affects only the noise floor, not the truncation
resolution the figure demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import FigureResult
from repro.cluster import (
    INFINIBAND_QDR,
    FaultSchedule,
    MultiGpuKPM,
    RetryPolicy,
    estimate_multigpu_seconds,
)
from repro.cpu import CORE_I7_930, CpuSpec, estimate_cpu_kpm_seconds
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm import estimate_gpu_kpm_seconds, uniform_csr_model
from repro.kpm import KPMConfig, compute_dos, rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.tune import Autotuner
from repro.util.validation import check_positive_int

__all__ = [
    "PAPER_FIG5_CONFIG",
    "PAPER_FIG78_CONFIG",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "block_size_ablation",
    "crs_vs_dense_ablation",
    "multigpu_ablation",
    "resilience_ablation",
    "kernel_comparison_ablation",
    "precision_ablation",
    "cpu_threads_ablation",
    "transport_ablation",
]

#: Sec. IV-A parameters ("S = 14 and R = 128"); only R*S = 1792 matters.
PAPER_FIG5_CONFIG = KPMConfig(num_random_vectors=128, num_realizations=14, block_size=256)
#: Sec. IV-B/C parameters ("R = 14 and S = 128").  The paper never states
#: its BLOCK_SIZE; we use 128 here so the Fig. 7 sweep (H_SIZE = 128)
#: does not idle block lanes beyond the vector length — with BLOCK_SIZE
#: above H_SIZE the element-parallel design wastes the excess threads.
PAPER_FIG78_CONFIG = KPMConfig(num_random_vectors=14, num_realizations=128, block_size=128)


def _timing_rows(
    dimensions_and_orders,
    *,
    gpu: GpuSpec,
    cpu: CpuSpec,
    base_config: KPMConfig,
):
    """Shared sweep core: (x, D, N) triples -> (x, cpu_s, gpu_s, speedup)."""
    rows = []
    for x, dim, n in dimensions_and_orders:
        config = base_config.with_updates(num_moments=n)
        cpu_s = estimate_cpu_kpm_seconds(cpu, dim, config)
        gpu_s = estimate_gpu_kpm_seconds(gpu, dim, config)
        rows.append((x, cpu_s, gpu_s, cpu_s / gpu_s))
    return rows


def fig5(
    *,
    n_values=(128, 256, 512, 1024),
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Figure 5: time + speedup vs ``N``, 10x10x10 lattice, dense ``H~``."""
    dimension = 1000
    rows = _timing_rows(
        [(n, dimension, n) for n in n_values],
        gpu=gpu,
        cpu=cpu,
        base_config=PAPER_FIG5_CONFIG,
    )
    return FigureResult(
        experiment_id="fig5",
        title="Execution time and speedup vs N (cubic 10x10x10 lattice, D=1000, R*S=1792, dense)",
        x_label="N",
        columns=("N", "cpu_seconds", "gpu_seconds", "speedup"),
        rows=rows,
        paper_expectation=(
            "speedup ~3.5x, roughly constant over N=128..1024"
        ),
        notes=(
            "modeled Core i7 930 vs Tesla C2050 times from the analytic "
            "estimators at the full paper parameters"
        ),
    )


def fig6(
    *,
    side: int = 10,
    n_values=(256, 512),
    num_random_vectors: int = 16,
    num_realizations: int = 2,
    num_energy_points: int = 512,
    seed: int = 0,
) -> FigureResult:
    """Figure 6: DoS of the cubic lattice at two truncation orders.

    Functional computation at reduced stochastic sampling (defaults:
    ``R = 16, S = 2`` instead of the paper's 1792 vectors): the
    stochastic-trace noise scales as ``1/sqrt(S R D)`` and is already far
    below the truncation effect the figure demonstrates.  The sparse
    (CSR) Hamiltonian is used for functional speed — the moments are
    storage-independent.
    """
    check_positive_int(side, "side")
    hamiltonian = tight_binding_hamiltonian(cubic(side), format="csr")
    densities = {}
    energies = None
    for n in n_values:
        config = KPMConfig(
            num_moments=int(n),
            num_random_vectors=num_random_vectors,
            num_realizations=num_realizations,
            num_energy_points=num_energy_points,
            seed=seed,
        )
        result = compute_dos(hamiltonian, config, backend="numpy")
        densities[int(n)] = result.density
        energies = result.energies
    columns = ("energy",) + tuple(f"dos_N{n}" for n in n_values)
    rows = [
        (float(energies[k]),) + tuple(float(densities[int(n)][k]) for n in n_values)
        for k in range(len(energies))
    ]
    return FigureResult(
        experiment_id="fig6",
        title=f"DoS truncation comparison, cubic {side}^3 lattice",
        x_label="energy",
        columns=columns,
        rows=rows,
        paper_expectation=(
            "N=512 resolves the band structure more sharply than N=256; "
            "both normalized over the same support"
        ),
        notes=(
            f"functional run with R={num_random_vectors}, S={num_realizations} "
            "(reduced from the paper's 1792 vectors; affects only the noise floor)"
        ),
    )


def fig7(
    *,
    n_values=(128, 256, 512, 1024, 2048),
    dimension: int = 128,
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Figure 7: time + speedup vs ``N`` at ``H_SIZE = 128`` (dense)."""
    rows = _timing_rows(
        [(n, dimension, n) for n in n_values],
        gpu=gpu,
        cpu=cpu,
        base_config=PAPER_FIG78_CONFIG,
    )
    return FigureResult(
        experiment_id="fig7",
        title=f"Execution time and speedup vs N (H_SIZE={dimension}, R*S=1792, dense)",
        x_label="N",
        columns=("N", "cpu_seconds", "gpu_seconds", "speedup"),
        rows=rows,
        paper_expectation="speedup rises with N, approaching ~4x at N=2048",
        notes="fixed GPU overheads amortize as N grows (paper Sec. IV-B)",
    )


def fig8(
    *,
    h_sizes=(512, 1024, 2048, 4096),
    num_moments: int = 128,
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Figure 8: time + speedup vs ``H_SIZE`` at ``N = 128`` (dense)."""
    rows = _timing_rows(
        [(d, d, num_moments) for d in h_sizes],
        gpu=gpu,
        cpu=cpu,
        base_config=PAPER_FIG78_CONFIG,
    )
    return FigureResult(
        experiment_id="fig8",
        title=f"Execution time and speedup vs H_SIZE (N={num_moments}, R*S=1792, dense)",
        x_label="H_SIZE",
        columns=("H_SIZE", "cpu_seconds", "gpu_seconds", "speedup"),
        rows=rows,
        paper_expectation=(
            "GPU ~4x faster; CPU time degrades once the dense matrix leaves "
            "cache while the GPU curve stays ~O(H_SIZE^2)"
        ),
        notes="the CPU's L3->DRAM transition happens between D=1024 and D=2048 footprints",
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ----------------------------------------------------------------------
#: Every power-of-two BLOCK_SIZE up to the Fermi block limit; unlike the
#: autotuner's default grid the ablations also price the edges 8 and 1024.
_ABLATION_BLOCK_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)


def _dense_block_sweep(gpu: GpuSpec, dimension: int, config: KPMConfig):
    """The paper's dense sweep priced at every BLOCK_SIZE: ``(best, points)``.

    ``points`` are in BLOCK_SIZE order; candidates above the device
    limit are skipped.
    """
    tuner = Autotuner(gpu, formats=("dense",), block_candidates=_ABLATION_BLOCK_SIZES)
    points = tuner.sweep(np.eye(dimension), config)
    return points[0], sorted(points, key=lambda p: p.block_size)


def block_size_ablation(
    *,
    num_moments: int = 512,
    gpu: GpuSpec = TESLA_C2050,
) -> FigureResult:
    """Paper §V future work: the BLOCK_SIZE quest, answered by the model.

    Sweeps both measured regimes: the DRAM-bound Fig. 5 workload
    (``D = 1000``) and the small compute/L2-bound Fig. 7 matrix
    (``D = 128``).  The answer the model gives: the recursion is
    bandwidth-bound, so on a single device BLOCK_SIZE is nearly free —
    *until* it exceeds the vector length, where the element-parallel
    design starts idling lanes.  Best practice: the largest warp
    multiple not exceeding ``H_SIZE``.
    """
    config_large = PAPER_FIG5_CONFIG.with_updates(num_moments=num_moments)
    config_small = PAPER_FIG78_CONFIG.with_updates(num_moments=num_moments)
    best_large, points_large = _dense_block_sweep(gpu, 1000, config_large)
    best_small, points_small = _dense_block_sweep(gpu, 128, config_small)
    small_by_bs = {p.block_size: p for p in points_small}
    rows = [
        (
            p.block_size,
            -(-config_large.total_vectors // p.block_size),
            p.modeled_seconds,
            -(-config_small.total_vectors // p.block_size),
            small_by_bs[p.block_size].modeled_seconds,
        )
        for p in points_large
        if p.block_size in small_by_bs
    ]
    return FigureResult(
        experiment_id="ablation-blocksize",
        title=f"BLOCK_SIZE sweep (Fig.5 workload D=1000 and Fig.7 workload D=128, N={num_moments})",
        x_label="BLOCK_SIZE",
        columns=(
            "BLOCK_SIZE",
            "blocks_D1000",
            "seconds_D1000",
            "blocks_D128",
            "seconds_D128",
        ),
        rows=rows,
        paper_expectation=(
            "open question in the paper (Sec. V); the paper's own 256 gives "
            "only 7 blocks on 14 SMs"
        ),
        notes=(
            f"best D=1000: BLOCK_SIZE={best_large.block_size} "
            f"({best_large.modeled_seconds:.2f}s); best D=128: "
            f"BLOCK_SIZE={best_small.block_size} ({best_small.modeled_seconds:.2f}s)"
        ),
    )


def crs_vs_dense_ablation(
    *,
    sides=(8, 10, 13, 16),
    num_moments: int = 512,
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Paper Sec. II-A4: the O(SRND) sparse vs O(SRND^2) dense complexity.

    The paper measured only the dense path; this ablation quantifies what
    CRS storage (7 nonzeros per row on the cubic lattice) would have
    bought at each lattice size.
    """
    rows = []
    for side in sides:
        dim = side**3
        nnz = 7 * dim  # six neighbors + stored zero diagonal
        config = PAPER_FIG5_CONFIG.with_updates(num_moments=num_moments)
        gpu_dense = estimate_gpu_kpm_seconds(gpu, dim, config)
        csr = uniform_csr_model(dim, nnz)
        gpu_csr = estimate_gpu_kpm_seconds(gpu, dim, config, spmv=csr)
        cpu_dense = estimate_cpu_kpm_seconds(cpu, dim, config)
        cpu_csr = estimate_cpu_kpm_seconds(cpu, dim, config, storage=csr.storage)
        rows.append(
            (dim, gpu_dense, gpu_csr, gpu_dense / gpu_csr, cpu_dense, cpu_csr)
        )
    return FigureResult(
        experiment_id="ablation-crs",
        title=f"CRS vs dense storage on cubic lattices (N={num_moments}, R*S=1792)",
        x_label="D",
        columns=(
            "D",
            "gpu_dense_s",
            "gpu_csr_s",
            "gpu_dense_over_csr",
            "cpu_dense_s",
            "cpu_csr_s",
        ),
        rows=rows,
        paper_expectation=(
            "paper claims O(SRND) sparse vs O(SRND^2) dense; measured runs "
            "were dense only"
        ),
        notes="CRS advantage grows linearly with D, as the complexity argument predicts",
    )


def multigpu_ablation(
    *,
    device_counts=(1, 2, 4, 8, 16),
    dimension: int = 1000,
    num_moments: int = 512,
    gpu: GpuSpec = TESLA_C2050,
    interconnect=INFINIBAND_QDR,
) -> FigureResult:
    """Paper §V future work: strong scaling on a simulated GPU cluster.

    Reports the paper's BLOCK_SIZE=256 and the per-count re-tuned block
    size side by side: the coarse decomposition stops scaling as soon as
    each device's block count drops below its SM count.
    """
    base = PAPER_FIG5_CONFIG.with_updates(num_moments=num_moments)
    rows = []
    single_256 = None
    for count in device_counts:
        fixed = estimate_multigpu_seconds(
            gpu, dimension, base, count, interconnect=interconnect
        )
        vectors_per_device = -(-base.total_vectors // count)
        tuned_best, _ = _dense_block_sweep(
            gpu,
            dimension,
            base.with_updates(
                num_random_vectors=vectors_per_device, num_realizations=1
            ),
        )
        tuned = estimate_multigpu_seconds(
            gpu,
            dimension,
            base.with_updates(block_size=tuned_best.block_size),
            count,
            interconnect=interconnect,
        )
        if single_256 is None:
            single_256 = fixed
        rows.append(
            (
                count,
                fixed,
                single_256 / fixed,
                tuned_best.block_size,
                tuned,
                single_256 / tuned,
            )
        )
    return FigureResult(
        experiment_id="ablation-multigpu",
        title=f"Multi-GPU strong scaling (D={dimension}, N={num_moments}, {interconnect.name})",
        x_label="devices",
        columns=(
            "devices",
            "seconds_bs256",
            "scaling_bs256",
            "tuned_bs",
            "seconds_tuned",
            "scaling_tuned",
        ),
        rows=rows,
        paper_expectation="future work in the paper (Sec. V); no measured data",
        notes=(
            "scaling stalls with BLOCK_SIZE=256 because per-device block "
            "counts fall below the SM count; re-tuning restores scaling"
        ),
    )


def resilience_ablation(
    *,
    fault_rates=(0.0, 0.125, 0.25, 0.5),
    num_devices: int = 8,
    lattice_size: int = 4,
    num_moments: int = 64,
    num_vectors: int = 32,
    checkpoint_every: int = 2,
    gpu: GpuSpec = TESLA_C2050,
    interconnect=INFINIBAND_QDR,
    seed: int = 2011,
) -> FigureResult:
    """Resilience-overhead curve: fault-rate sweep on the cluster driver.

    Functional runs (not analytic estimates) at miniature scale: each
    rate samples a deterministic :class:`~repro.cluster.FaultSchedule`
    (crash + straggler + transfer corruption, all at the same per-node
    rate), recovers, and reports the modeled-time overhead against the
    fault-free checkpointed baseline.  The ``max_mu_diff`` column is the
    recovery correctness check — it must be exactly 0.0 at every rate
    (bit-identical moments, docs/RESILIENCE.md).
    """
    check_positive_int(num_devices, "num_devices")
    hamiltonian = tight_binding_hamiltonian(cubic(lattice_size), format="csr")
    scaled, _ = rescale_operator(hamiltonian)
    config = KPMConfig(
        num_moments=num_moments,
        num_random_vectors=num_vectors,
        num_realizations=1,
        block_size=32,
        seed=seed,
    )
    baseline_data, baseline_report = MultiGpuKPM(
        num_devices, gpu, interconnect=interconnect, checkpoint_every=checkpoint_every
    ).compute_moments(scaled, config)

    rows = []
    for index, rate in enumerate(fault_rates):
        schedule = FaultSchedule.sample(
            seed + index,
            num_devices,
            crash_rate=rate,
            straggler_rate=rate,
            transfer_rate=rate,
        )
        data, report = MultiGpuKPM(
            num_devices,
            gpu,
            interconnect=interconnect,
            fault_schedule=schedule,
            policy=RetryPolicy(max_retries=4 * num_devices),
            checkpoint_every=checkpoint_every,
        ).compute_moments(scaled, config)
        rows.append(
            (
                rate,
                schedule.num_faults,
                report.phase_seconds("recovery"),
                report.phase_seconds("rebalance"),
                report.modeled_seconds / baseline_report.modeled_seconds,
                float(np.max(np.abs(data.mu - baseline_data.mu), initial=0.0)),
            )
        )
    return FigureResult(
        experiment_id="ablation-resilience",
        title=(
            f"Fault-tolerance overhead ({num_devices} nodes, "
            f"D={scaled.shape[0]}, N={num_moments}, {interconnect.name})"
        ),
        x_label="fault_rate",
        columns=(
            "fault_rate",
            "faults",
            "recovery_s",
            "rebalance_s",
            "overhead",
            "max_mu_diff",
        ),
        rows=rows,
        paper_expectation=(
            "extension beyond the paper: Sec. V plans the cluster but "
            "assumes fault-free nodes"
        ),
        notes=(
            "recovery is bit-exact at every fault rate (max_mu_diff == 0); "
            "overhead grows with the injected fault count"
        ),
    )


def precision_ablation(
    *,
    h_sizes=(512, 1024, 2048, 4096),
    num_moments: int = 128,
    gpu: GpuSpec = TESLA_C2050,
) -> FigureResult:
    """Design-choice ablation: the paper's all-double-precision decision.

    "All KPM calculations are performed with double precision floating
    point" (Sec. IV).  On Fermi Tesla parts DP runs at half the SP rate
    and doubles every byte moved, so single precision buys up to 2x on
    this bandwidth-bound kernel.  The accuracy column quantifies the
    cost: the max moment drift of a functional float32 run against the
    float64 reference on the cubic-lattice workload.
    """
    # Modeled times at the paper's Fig. 8 sweep.
    rows = []
    for h_size in h_sizes:
        config = PAPER_FIG78_CONFIG.with_updates(num_moments=num_moments)
        t_double = estimate_gpu_kpm_seconds(gpu, h_size, config)
        t_single = estimate_gpu_kpm_seconds(
            gpu, h_size, config.with_updates(precision="single")
        )
        rows.append((h_size, t_double, t_single, t_double / t_single))

    # Functional accuracy at executable scale (6^3 lattice).
    hamiltonian = tight_binding_hamiltonian(cubic(6), format="csr")
    base = KPMConfig(
        num_moments=num_moments, num_random_vectors=8, num_realizations=1,
        seed=0, block_size=64,
    )
    double_run = compute_dos(hamiltonian, base, backend="gpu-sim")
    single_run = compute_dos(
        hamiltonian, base.with_updates(precision="single"), backend="gpu-sim"
    )
    drift = float(np.max(np.abs(double_run.moments.mu - single_run.moments.mu)))

    return FigureResult(
        experiment_id="ablation-precision",
        title=f"Double vs single precision (N={num_moments}, R*S=1792, dense)",
        x_label="H_SIZE",
        columns=("H_SIZE", "seconds_double", "seconds_single", "dp_over_sp"),
        rows=rows,
        paper_expectation=(
            "the paper measures double precision only (Sec. IV); Fermi DP "
            "runs at half the SP rate and doubles the traffic"
        ),
        notes=(
            f"functional float32 moment drift vs float64 on the 6^3 lattice: "
            f"{drift:.2e} (N={num_moments})"
        ),
    )


def cpu_threads_ablation(
    *,
    thread_counts=(1, 2, 4, 8),
    num_moments: int = 512,
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Paper §V future work: shared-memory CPU parallelization.

    The paper worries the recursion makes the KPM "very hard" to
    parallelize with OpenMP/MPI; distributing *random vectors* (the same
    decomposition its own GPU design uses) sidesteps that entirely.
    This ablation models an OpenMP version on the paper's own Core i7
    930 and re-evaluates the GPU advantage against a full socket
    instead of one core, for both measured regimes.
    """
    from repro.cpu import estimate_parallel_cpu_kpm_seconds

    config_large = PAPER_FIG5_CONFIG.with_updates(num_moments=num_moments)
    config_small = PAPER_FIG78_CONFIG.with_updates(num_moments=num_moments)
    gpu_large = estimate_gpu_kpm_seconds(gpu, 1000, config_large)
    gpu_small = estimate_gpu_kpm_seconds(gpu, 128, config_small)
    rows = []
    for threads in thread_counts:
        cpu_large = estimate_parallel_cpu_kpm_seconds(
            cpu, 1000, config_large, threads=threads
        )
        cpu_small = estimate_parallel_cpu_kpm_seconds(
            cpu, 128, config_small, threads=threads
        )
        rows.append(
            (
                threads,
                cpu_large,
                cpu_large / gpu_large,
                cpu_small,
                cpu_small / gpu_small,
            )
        )
    return FigureResult(
        experiment_id="ablation-cputhreads",
        title=(
            f"OpenMP-style CPU scaling vs the GPU (N={num_moments}, R*S=1792, dense; "
            "left: D=1000, right: D=128)"
        ),
        x_label="threads",
        columns=(
            "threads",
            "cpu_s_D1000",
            "gpu_advantage_D1000",
            "cpu_s_D128",
            "gpu_advantage_D128",
        ),
        rows=rows,
        paper_expectation=(
            "paper Sec. V calls shared-memory parallelization challenging; "
            "the single-core baseline flatters the GPU"
        ),
        notes=(
            "vector-parallel OpenMP model: the DRAM-bound D=1000 sweep "
            "saturates at the socket's aggregate bandwidth (~1.75x one "
            "core); the L2-resident D=128 sweep scales with cores"
        ),
    )


def transport_ablation(
    *,
    n_values=(32, 64, 128, 256),
    side: int = 10,
    gpu: GpuSpec = TESLA_C2050,
    cpu: CpuSpec = CORE_I7_930,
) -> FigureResult:
    """Extension study: Kubo-Greenwood transport on the paper's platform.

    The conductivity double expansion is the natural next workload for
    the paper's GPU design (two Chebyshev stacks per vector plus an
    ``N^2 D`` Gram contraction).  Unlike the bandwidth-bound DoS
    recursion, the contraction is FLOP-bound, so the GPU's advantage
    *grows* with ``N`` — and the 2N-vector stacks replace the paper's
    4-vector workspace as the memory limit.  Sparse (CRS) storage, the
    sensible choice for transport.
    """
    from repro.cpu import phase_time
    from repro.gpukpm import estimate_gpu_conductivity_seconds, plan_conductivity_memory

    dim = side**3
    nnz = 7 * dim
    matrices = dict(
        spmv=uniform_csr_model(dim, nnz),
        # One +axis bond per site, antisymmetrized.
        current_spmv=uniform_csr_model(dim, 2 * dim),
    )
    rows = []
    for n in n_values:
        config = PAPER_FIG5_CONFIG.with_updates(num_moments=n)
        gpu_s = estimate_gpu_conductivity_seconds(gpu, dim, config, **matrices)
        # CPU: same work accounting through the scalar roofline.
        from repro.gpukpm import per_vector_conductivity_stats

        pv = per_vector_conductivity_stats(dim, n, **matrices)
        stack_bytes = 2 * n * dim * 8
        cpu_s = config.total_vectors * phase_time(
            cpu,
            flops=pv.flops,
            bytes_moved=pv.gmem_read_bytes + pv.gmem_write_bytes,
            footprint_bytes=matrices["spmv"].storage.matrix_bytes + stack_bytes,
        )
        memory = plan_conductivity_memory(gpu, dim, config, **matrices)
        rows.append(
            (n, cpu_s, gpu_s, cpu_s / gpu_s, sum(memory.values()) / 1024**2)
        )
    return FigureResult(
        experiment_id="ablation-transport",
        title=f"Kubo-Greenwood conductivity on the paper's platform (D={dim}, CRS, R*S=1792)",
        x_label="N",
        columns=("N", "cpu_seconds", "gpu_seconds", "speedup", "gpu_mib"),
        rows=rows,
        paper_expectation=(
            "not in the paper; the natural extension workload for its design"
        ),
        notes=(
            "the N^2 D Gram contraction is compute-bound, so the GPU gains "
            "more than on the DoS; device memory grows with 2N vectors/block"
        ),
    )


def kernel_comparison_ablation(
    *,
    side: int = 8,
    num_moments: int = 128,
    kernels=("jackson", "dirichlet", "fejer", "lorentz"),
    seed: int = 0,
) -> FigureResult:
    """Design-choice ablation: why the paper damps with the Jackson kernel.

    Reconstructs the cubic-lattice DoS with several kernels and reports
    each kernel's negativity (Gibbs undershoot mass) and integral error —
    the undamped (Dirichlet) series rings visibly.
    """
    hamiltonian = tight_binding_hamiltonian(cubic(side), format="csr")
    rows = []
    for name in kernels:
        config = KPMConfig(
            num_moments=num_moments,
            num_random_vectors=16,
            num_realizations=1,
            kernel=name,
            seed=seed,
        )
        result = compute_dos(hamiltonian, config, backend="numpy")
        negativity = float(
            -np.trapezoid(np.minimum(result.density, 0.0), result.energies)
        )
        rows.append((name, result.integrate(), negativity))
    return FigureResult(
        experiment_id="ablation-kernel",
        title=f"Damping-kernel comparison, cubic {side}^3 lattice, N={num_moments}",
        x_label="kernel",
        columns=("kernel", "dos_integral", "negativity"),
        rows=rows,
        paper_expectation=(
            "the paper uses the Jackson kernel to suppress Gibbs oscillations "
            "(Sec. I); Dirichlet shows the undamped ringing"
        ),
        notes="negativity = integrated magnitude of DoS undershoot below zero",
    )
