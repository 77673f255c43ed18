"""The full GPU KPM pipeline (host program of paper Sec. III).

Host-side sequence, mirroring the CUDA original:

1. allocate and upload ``H~`` (dense buffer or CSR triple) over PCIe;
2. allocate the per-block 4-vector workspace and the ``mu~`` table;
3. launch ``kpm_recursion`` over ``ceil(R*S / BLOCK_SIZE)`` blocks;
4. launch ``reduce_moments``;
5. download the moment table and assemble :class:`~repro.kpm.MomentData`.

:meth:`GpuKPM.run_partition` issues every recursion launch from one
loop over chunks of vectors.  A plain, capturing or resuming run is one
chunk followed by steps 4-5; checkpoint mode downloads each chunk as it
finishes and reduces on the host instead.

The modeled time comes from the device profiler; tests pin it against
:func:`repro.gpukpm.estimate_gpu_kpm_seconds` (same launch schedule,
no execution).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.gpu.device import Device
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.kernels import DeviceMatrix, kpm_recursion_kernel, reduce_moments_kernel
from repro.gpukpm.spmv import SPMV_FORMATS, SpmvModel, default_spmv_format, spmv_model_for
from repro.gpukpm.stats import (
    per_vector_recursion_stats,
    plan_grid,
    recursion_footprint_bytes,
    reduce_launch_stats,
)
from repro.kpm.config import KPMConfig
from repro.kpm.moments import MomentData, _check_extension, _run_key
from repro.kpm.moments import reduce_moment_table, vector_mean
from repro.trace.tracer import current_tracer
from repro.sparse import CSRMatrix, ELLMatrix, as_format, as_operator
from repro.timing import TimingReport, WallTimer
from repro.util.validation import check_positive_int

__all__ = ["CheckpointChunk", "GpuMomentState", "GpuKPM"]


@dataclass(frozen=True)
class GpuMomentState:
    """Host-side recursion checkpoint of a GPU moment run.

    Holds the last two Chebyshev vectors ``(r_{N-2}, r_{N-1})`` of every
    random vector, downloaded after the recursion launch (the download
    is charged to the device — checkpointing is not free).  Feeding it
    back through :meth:`GpuKPM.extend_moments` resumes the recursion at
    order ``num_moments`` without replaying, bit-identical to a cold run
    at the higher order.

    Attributes
    ----------
    run_key:
        The config fields besides ``N`` that decide the moment values
        (R, S, vector kind, seed, doubling, precision); an extension
        must match them.
    num_moments:
        Truncation order the state was captured at.
    data:
        ``(R * S, 2, D)`` array in the device dtype.
    """

    run_key: tuple
    num_moments: int
    data: np.ndarray


@dataclass(frozen=True)
class CheckpointChunk:
    """One checkpointed slice of a partition's moment table.

    Handed to the ``on_chunk`` hook of :meth:`GpuKPM.run_partition` after
    each chunk of vectors finishes and its rows are downloaded.  The
    fault-tolerant cluster driver (:mod:`repro.cluster`) persists these
    rows so a node crash only loses work since the last checkpoint.

    Attributes
    ----------
    first_vector:
        Global index of the chunk's first vector row.
    num_vectors:
        Number of rows in the chunk.
    rows:
        ``(num_vectors, N)`` float64 copy of the raw moment rows.
    modeled_seconds:
        Modeled device seconds this chunk cost (launch + download).
    """

    first_vector: int
    num_vectors: int
    rows: np.ndarray
    modeled_seconds: float


class GpuKPM:
    """GPU KPM runner bound to one device spec.

    Implements the :class:`~repro.kpm.engines.MomentEngine` protocol
    directly (``name`` + :meth:`compute_moments`), so an instance can be
    passed to ``compute_dos(..., backend=GpuKPM(GTX_580))`` or scheduled
    by the :mod:`repro.serve` engine pool.

    Parameters
    ----------
    spec:
        The simulated device; defaults to the paper's Tesla C2050.
    tuner:
        Optional autotuner (duck-typed to
        :class:`repro.tune.Autotuner`): consulted per request to pick
        the SpMV format, block size, and vector width for the operator's
        structure.  Tuning is a pure cost/layout choice — results stay
        bit-identical across every choice.
    spmv_format:
        Pin the SpMV format explicitly (one of
        :data:`repro.gpukpm.spmv.SPMV_FORMATS`), bypassing both the
        tuner and the storage-preserving default.
    vector_width:
        Warp-team lanes for a pinned ``csr-vector`` format.

    After :meth:`compute_moments`, :attr:`last_device` holds the device
    with its full profiler timeline for inspection, and
    :attr:`last_spmv` the :class:`~repro.gpukpm.spmv.SpmvModel` the run
    was charged with.
    """

    name = "gpu-sim"

    def __init__(
        self,
        spec: GpuSpec = TESLA_C2050,
        *,
        tuner=None,
        spmv_format: str | None = None,
        vector_width: int | None = None,
    ):
        if not isinstance(spec, GpuSpec):
            raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
        if spmv_format is not None and spmv_format not in SPMV_FORMATS:
            raise ValidationError(
                f"spmv_format must be one of {SPMV_FORMATS}, got {spmv_format!r}"
            )
        self.spec = spec
        self.tuner = tuner
        self.spmv_format = spmv_format
        self.vector_width = vector_width
        self.last_device: Device | None = None
        self.last_spmv: SpmvModel | None = None

    # ------------------------------------------------------------------
    def resolve_spmv(self, op, config: KPMConfig) -> tuple[SpmvModel, KPMConfig]:
        """Pick the SpMV model and effective config for this request.

        Resolution order: pinned ``spmv_format`` > tuner choice >
        storage-preserving default.  The returned config only ever
        differs in ``block_size`` (a tuner override), which is
        numerics-invariant: random streams are keyed by global vector
        index and the reduction is a mean over the same table.

        Both :meth:`run_partition` and :meth:`estimate_modeled_seconds`
        resolve through here, so executed and analytic modeled times
        stay exactly equal for every choice.
        """
        fmt = self.spmv_format
        width = self.vector_width or 1
        block_size = None
        if fmt is None and self.tuner is not None:
            choice = self.tuner.choose(op, config, self.spec)
            fmt = choice.format
            width = choice.vector_width
            block_size = choice.block_size
        if fmt is None:
            fmt = default_spmv_format(op)
        if fmt == "csr-vector" and width == 1:
            width = 32  # a full warp per row unless told otherwise
        model = spmv_model_for(
            op,
            fmt,
            precision=config.precision,
            vector_width=width if fmt == "csr-vector" else 1,
        )
        if block_size is not None and block_size != config.block_size:
            config = replace(config, block_size=block_size)
        return model, config

    def _sparse_copy(self, op):
        """``op``, or one CSR copy of it when a dense-stored ``op`` may run sparse.

        A tuner or a pinned sparse format profiles the operator, and the
        upload of a sparse choice re-stores it; both read this one copy,
        so a run converts a dense-stored operator at most once.
        """
        if isinstance(op, (CSRMatrix, ELLMatrix)) or self.spmv_format == "dense":
            return op
        if self.spmv_format is None and self.tuner is None:
            return op
        return as_format(op, "csr")

    @staticmethod
    def _upload_matrix(
        device: Device, op, spmv: SpmvModel, dim: int, dtype, *, name: str = "H"
    ) -> DeviceMatrix:
        """Upload ``op`` in the storage ``spmv.format`` runs on.

        The one device upload of a matrix: converts host-side through
        :func:`repro.sparse.as_format` when the storage differs (e.g. a
        CSR operator tuned onto the ELL program; a CSR or ELL operator
        already in that storage comes back unchanged), names the buffers
        ``{name}.*``, and hands the host operator's checked sweep plan
        to the :class:`DeviceMatrix`, so no upload builds a pattern.
        The PCIe transfers match ``spmv.upload_bytes`` exactly, which is
        what the estimator prices.
        """
        fmt = spmv.format
        if fmt in ("csr", "csr-vector"):
            csr = as_format(op, "csr")
            nnz = csr.nnz_stored
            d_data = device.alloc(nnz, dtype=dtype, name=f"{name}.data")
            d_indices = device.alloc(nnz, dtype=np.int64, name=f"{name}.indices")
            d_indptr = device.alloc(dim + 1, dtype=np.int64, name=f"{name}.indptr")
            device.memcpy_htod(d_data, csr.data.astype(dtype))
            device.memcpy_htod(d_indices, csr.indices)
            device.memcpy_htod(d_indptr, csr.indptr)
            return DeviceMatrix(
                csr_data=d_data,
                csr_indices=d_indices,
                csr_indptr=d_indptr,
                shape=csr.shape,
                plan=csr.sweep_plan,
            )
        if fmt == "ell":
            ell = as_format(op, "ell")
            d_data = device.alloc(
                (dim, ell.width), dtype=dtype, name=f"{name}.ell_data"
            )
            d_indices = device.alloc(
                (dim, ell.width), dtype=np.int64, name=f"{name}.ell_indices"
            )
            device.memcpy_htod(d_data, ell.data.astype(dtype))
            device.memcpy_htod(d_indices, ell.indices)
            return DeviceMatrix(
                ell_data=d_data,
                ell_indices=d_indices,
                shape=ell.shape,
                plan=ell.sweep_plan,
                nnz=ell.nnz_stored,
            )
        d_matrix = device.alloc((dim, dim), dtype=dtype, name=f"{name}.dense")
        device.memcpy_htod(d_matrix, as_format(op, "dense").astype(dtype))
        return DeviceMatrix(dense=d_matrix)

    # ------------------------------------------------------------------
    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]:
        """Execute the pipeline; return moments and the timing report.

        ``scaled_operator`` must already have its spectrum in
        ``[-1, 1]`` (use :func:`repro.kpm.rescale_operator`); the
        high-level :func:`repro.kpm.compute_dos` does this for you.
        """
        return self._run_moments(scaled_operator, config)

    def _run_moments(
        self, scaled_operator, config: KPMConfig, **resume
    ) -> tuple[MomentData, TimingReport]:
        """Timed full-range :meth:`run_partition`, assembled per realization.

        ``resume`` passes ``start_moment``/``resume_state``/``state_sink``
        through; on resume the data covers only the new orders.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        with WallTimer() as timer:
            host_mu_tilde, host_mu, device = self.run_partition(
                scaled_operator,
                config,
                first_vector=0,
                num_vectors=config.total_vectors,
                **resume,
            )
        dim = as_operator(scaled_operator).shape[0]
        r = config.num_random_vectors
        data = reduce_moment_table(host_mu_tilde, r, dim, mu=host_mu)
        return data, self._timing_report(device, timer.seconds)

    def _timing_report(self, device: Device, wall_seconds: float) -> TimingReport:
        breakdown = dict(device.profiler.seconds_by_kernel())
        breakdown["setup"] = device.profiler.setup_seconds
        breakdown["transfer"] = device.profiler.transfer_seconds
        return TimingReport(
            backend=self.name,
            device=self.spec.name,
            modeled_seconds=device.modeled_seconds,
            wall_seconds=wall_seconds,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    # ResumableMomentEngine protocol
    def compute_moments_resumable(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport, GpuMomentState | None]:
        """Like :meth:`compute_moments`, also capturing a recursion state.

        The state download is honestly charged to the device, so a
        resumable run costs slightly more than a plain one — the price
        of checkpointing.  Returns ``state=None`` when
        ``num_moments < 2`` (nothing to checkpoint).
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        captured: list[np.ndarray] = []
        sink = captured.append if config.num_moments >= 2 else None
        data, report = self._run_moments(scaled_operator, config, state_sink=sink)
        state = None
        if captured:
            state = GpuMomentState(
                run_key=_run_key(config),
                num_moments=config.num_moments,
                data=captured[0],
            )
        return data, report, state

    def extend_moments(
        self, scaled_operator, config: KPMConfig, data: MomentData, state
    ) -> tuple[MomentData, TimingReport, GpuMomentState]:
        """Resume the recursion from ``state`` up to ``config.num_moments``.

        The new moment columns come out of the same kernel expressions a
        cold run would execute, so the extended :class:`MomentData` is
        bit-identical to :meth:`compute_moments` at the higher order.
        ``config`` must match the captured run in every field that
        decides moment values, else :class:`ValidationError` names the
        first that differs.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        if not isinstance(state, GpuMomentState):
            raise ValidationError(
                f"state must be a GpuMomentState, got {type(state).__name__}"
            )
        _check_extension(state.run_key, state.num_moments, data, config)
        captured: list[np.ndarray] = []
        new, report = self._run_moments(
            scaled_operator,
            config,
            start_moment=state.num_moments,
            resume_state=state.data,
            state_sink=captured.append,
        )
        extended = data.followed_by(new)
        new_state = replace(state, num_moments=config.num_moments, data=captured[0])
        return extended, report, new_state

    def estimate_modeled_seconds(self, scaled_operator, config: KPMConfig) -> float:
        """Analytic modeled seconds of a cold run — no execution.

        Same launch schedule as :meth:`compute_moments` (the tests pin
        their equality); the serving layer uses this for naive-cost
        accounting without running anything.
        """
        from repro.gpukpm.estimator import estimate_gpu_kpm_seconds

        op = as_operator(scaled_operator)
        spmv, config = self.resolve_spmv(self._sparse_copy(op), config)
        return estimate_gpu_kpm_seconds(self.spec, op.shape[0], config, spmv=spmv)

    def run_partition(
        self,
        scaled_operator,
        config: KPMConfig,
        *,
        first_vector: int,
        num_vectors: int,
        checkpoint_every: int | None = None,
        on_chunk: Callable[[CheckpointChunk], None] | None = None,
        start_moment: int = 0,
        resume_state: np.ndarray | None = None,
        state_sink: Callable[[np.ndarray], None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, Device]:
        """Run the pipeline for vectors ``[first_vector, first_vector + num_vectors)``.

        This is the device-level worker used both by :meth:`compute_moments`
        (full range) and by the multi-GPU extension (:mod:`repro.cluster`),
        which assigns each simulated device one partition.  Global
        vector numbering keeps the random streams identical to a
        single-device run.

        Every ``kpm_recursion`` launch comes from one loop over chunks of
        vectors.  Without ``checkpoint_every`` and ``on_chunk`` there is
        one chunk, and the device reduces and downloads the table.

        Parameters
        ----------
        checkpoint_every:
            When set, split the recursion into launches of at most this
            many vectors and download each chunk's rows as soon as it
            finishes (checkpoint mode).  Each chunk costs an extra
            download, honestly charged to the device; the partition mean
            is then reduced on the host (the cluster driver re-reduces
            globally anyway).  Per-vector moment rows are bit-identical
            to the single-launch path because every row depends only on
            its own global random stream.
        on_chunk:
            Hook invoked with a :class:`CheckpointChunk` after each chunk
            (implies checkpoint mode with one chunk if
            ``checkpoint_every`` is unset).  The hook may raise — e.g.
            :class:`repro.errors.DeviceLostError` from an injected fault
            schedule — which aborts the partition mid-run; rows already
            handed to the hook remain valid checkpoints.
        start_moment, resume_state:
            Resume mode: skip orders below ``start_moment`` (>= 2) by
            seeding the recursion from ``resume_state`` — a host
            ``(num_vectors, 2, D)`` array of checkpointed
            ``(r_{start-2}, r_{start-1})`` pairs (uploaded over PCIe,
            honestly charged).  The returned table then has
            ``num_moments - start_moment`` columns — only the new
            orders — bit-identical to the corresponding columns of a
            cold run at ``num_moments``.
        state_sink:
            When set, capture the final recursion vectors after the
            launch and call ``state_sink(state)`` with the host
            ``(num_vectors, 2, D)`` array (the download is charged to
            the device).  Requires ``num_moments >= 2``.  Resume and
            capture are mutually exclusive with checkpoint mode.

        Returns
        -------
        (mu_tilde, mu, device):
            The raw per-vector moment table ``(num_vectors, N)``, the
            reduced mean over this partition ``(N,)`` (both
            *unnormalized* by ``D``), and the device with its profiler.
            Every device buffer the run allocated is freed, also when it
            raises.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        if first_vector < 0 or num_vectors <= 0:
            raise ValidationError(
                "first_vector must be >= 0 and num_vectors positive, got "
                f"{first_vector}, {num_vectors}"
            )
        op = as_operator(scaled_operator)
        sparse = self._sparse_copy(op)
        spmv, config = self.resolve_spmv(sparse, config)
        self.last_spmv = spmv
        dim = op.shape[0]
        num_moments = config.num_moments
        plan = plan_grid(num_vectors, config.block_size, self.spec)
        dtype = np.float64 if config.precision == "double" else np.float32

        resuming = resume_state is not None
        checkpointing = checkpoint_every is not None or on_chunk is not None
        if (resuming or start_moment or state_sink is not None) and checkpointing:
            raise ValidationError(
                "resume/state-capture mode is incompatible with checkpoint "
                "mode (checkpoint_every/on_chunk)"
            )
        if resuming:
            if start_moment < 2 or start_moment >= num_moments:
                raise ValidationError(
                    "resume needs 2 <= start_moment < num_moments, got "
                    f"start_moment={start_moment}, num_moments={num_moments}"
                )
            expected = (num_vectors, 2, dim)
            if tuple(resume_state.shape) != expected:
                raise ValidationError(
                    f"resume_state must have shape {expected}, got "
                    f"{tuple(resume_state.shape)}"
                )
        elif start_moment:
            raise ValidationError("start_moment > 0 requires resume_state")
        if state_sink is not None and num_moments < 2:
            raise ValidationError(
                "state capture needs num_moments >= 2 (two recursion "
                "vectors to checkpoint)"
            )
        chunk_size = num_vectors
        if checkpoint_every is not None:
            chunk_size = check_positive_int(checkpoint_every, "checkpoint_every")
        # Columns the launch produces: all orders cold, new orders on resume.
        width = num_moments - start_moment

        device = Device(self.spec)
        self.last_device = device
        tracer = current_tracer()
        host_mu_tilde = np.empty((num_vectors, width), dtype=dtype)
        host_state = None

        with tracer.span(
            "gpu.pipeline",
            category="pipeline",
            device=self.spec.name,
            dimension=dim,
            num_vectors=num_vectors,
            first_vector=first_vector,
            block_size=plan.block_size,
            spmv_format=spmv.format,
        ):
            try:
                # --- upload the Hamiltonian ---------------------------------
                with tracer.device_span("gpu.upload", device):
                    matrix = self._upload_matrix(
                        device, op if spmv.format == "dense" else sparse, spmv, dim, dtype
                    )

                    # --- workspace + state buffers (paper Sec. III-B2) ------
                    # The modeled blocks walk their vectors through this
                    # 4-vector workspace; the emulated kernel advances
                    # them in lockstep in host scratch instead.
                    workspace = device.alloc(
                        (plan.num_blocks, 4, dim), dtype=dtype, name="workspace"
                    )
                    d_state_in = d_state_out = None
                    if resuming:
                        d_state_in = device.alloc(
                            (num_vectors, 2, dim), dtype=dtype, name="state.in"
                        )
                        device.memcpy_htod(
                            d_state_in, np.asarray(resume_state, dtype=dtype)
                        )
                    if state_sink is not None:
                        d_state_out = device.alloc(
                            (num_vectors, 2, dim), dtype=dtype, name="state.out"
                        )

                # --- part (a): one recursion launch per chunk ---------------
                for start in range(0, num_vectors, chunk_size):
                    count = min(chunk_size, num_vectors - start)
                    chunk_plan = plan_grid(count, config.block_size, self.spec)
                    pv_stats = per_vector_recursion_stats(
                        dim,
                        num_moments,
                        spmv=spmv,
                        block_size=chunk_plan.block_size,
                        precision=config.precision,
                        start_moment=start_moment,
                    )
                    footprint = recursion_footprint_bytes(
                        dim, chunk_plan, self.spec, spmv=spmv, precision=config.precision
                    )
                    mu_tilde = device.alloc(
                        (count, width),
                        dtype=dtype,
                        name="mu_tilde.chunk" if checkpointing else "mu_tilde",
                    )
                    seconds_before = device.modeled_seconds
                    attrs = {"chunk_start": first_vector + start} if checkpointing else {}
                    with tracer.device_span("gpu.moments", device, **attrs):
                        device.launch(
                            kpm_recursion_kernel,
                            grid=chunk_plan.num_blocks,
                            block=chunk_plan.block_size,
                            args=(
                                matrix,
                                mu_tilde,
                                chunk_plan,
                                pv_stats,
                                footprint,
                                num_moments,
                                config.num_random_vectors,
                                config.vector_kind,
                                config.seed,
                                first_vector + start,
                                start_moment,
                                d_state_in,
                                d_state_out,
                            ),
                            shared_bytes_per_block=chunk_plan.block_size * 8,
                        )
                    if checkpointing:
                        # Per-chunk download buffer (final chunk can be
                        # narrower), overwritten by memcpy_dtoh — once per
                        # chunk, not per moment.
                        rows = np.empty((count, width), dtype=dtype)  # repro: noqa[RA009]
                        with tracer.device_span("gpu.download", device):
                            device.memcpy_dtoh(rows, mu_tilde)
                        mu_tilde.free()
                        host_mu_tilde[start : start + count] = rows
                        if on_chunk is not None:
                            on_chunk(
                                CheckpointChunk(
                                    first_vector=first_vector + start,
                                    num_vectors=count,
                                    rows=rows.astype(np.float64),
                                    modeled_seconds=device.modeled_seconds
                                    - seconds_before,
                                )
                            )

                if checkpointing:
                    host_mu = vector_mean(host_mu_tilde)
                else:
                    # --- part (b): reduction --------------------------------
                    mu_out = device.alloc(width, dtype=dtype, name="mu")
                    reduce_stats = reduce_launch_stats(
                        width, num_vectors, precision=config.precision
                    )
                    reduce_blocks = -(-width // plan.block_size)
                    with tracer.device_span("gpu.reduction", device):
                        device.launch(
                            reduce_moments_kernel,
                            grid=reduce_blocks,
                            block=plan.block_size,
                            args=(
                                mu_tilde,
                                mu_out,
                                reduce_stats.footprint_bytes,
                                config.precision,
                            ),
                        )

                    # --- download -------------------------------------------
                    host_mu = np.empty(width, dtype=dtype)
                    with tracer.device_span("gpu.download", device):
                        device.memcpy_dtoh(host_mu_tilde, mu_tilde)
                        device.memcpy_dtoh(host_mu, mu_out)
                        if d_state_out is not None:
                            host_state = np.empty((num_vectors, 2, dim), dtype=dtype)
                            device.memcpy_dtoh(host_state, d_state_out)
                    mu_out.free()
                    mu_tilde.free()
                if d_state_out is not None:
                    d_state_out.free()
                if d_state_in is not None:
                    d_state_in.free()
                workspace.free()
                matrix.free()
            finally:
                # The normal path frees each buffer after its last use.
                # What an exception left live (a partial upload, an
                # aborted chunk's buffers) is freed here: the device
                # outlives the run and must not leak VRAM.
                for array in device.memory.live_arrays:
                    array.free()
        if state_sink is not None:
            state_sink(host_state)
        return host_mu_tilde.astype(np.float64), host_mu.astype(np.float64), device
