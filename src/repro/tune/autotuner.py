"""Per-matrix kernel autotuner over the analytic cost models.

The paper's future-work quest ("find the best block size used in the
GPU", Sec. V) generalizes on the simulator to a three-axis search: SpMV
storage format x BLOCK_SIZE x warp-team width.  Because the executed
pipeline and the analytic estimator charge the *same*
:class:`~repro.gpukpm.spmv.SpmvModel` numbers (the estimator-consistency
tests pin their equality), scoring candidates with
:func:`~repro.gpukpm.estimator.estimate_gpu_kpm_seconds` is exact with
respect to simulator semantics — the sweep never needs to execute.

:class:`Autotuner` fingerprints each matrix's *structure* (pattern, not
values — :func:`repro.sparse.structure_fingerprint`), sweeps the
candidate grid once per (structure, workload shape, device), and
memoizes the winner in a byte-stable :class:`~repro.tune.cache.TuningCache`.
``GpuKPM(tuner=...)`` then consults :meth:`Autotuner.choose` per request;
choices are numerics-invariant (every format executes the canonical
contraction order of :mod:`repro.sparse.sweep`, and block size only
re-tiles the vector grid), so tuning can never change a spectrum.

Probe runs (``probe=True``) execute the winning candidate on a fresh
:class:`~repro.gpu.Device` under a private tracer — they never advance
the caller's modeled clock (the serve gateway calls ``choose`` on the
admission path) — and cross-check the analytic score against the
executed modeled time.
"""

from __future__ import annotations

from repro.errors import LaunchError, ValidationError
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.estimator import estimate_gpu_kpm_seconds
from repro.gpukpm.spmv import SPMV_FORMATS, VECTOR_WIDTHS, spmv_model_for
from repro.kpm.config import KPMConfig
from repro.sparse import as_format
from repro.sparse.fingerprint import (
    StructureProfile,
    structure_fingerprint,
    structure_profile,
)
from repro.trace.tracer import current_tracer
from repro.tune.cache import TuningCache, TuningChoice
from repro.util.validation import check_power_of_two

__all__ = ["DEFAULT_BLOCK_CANDIDATES", "PROBE_REL_TOL", "Autotuner", "tuning_key"]

#: Power-of-two BLOCK_SIZE candidates the sweep prices (filtered per
#: device by ``max_threads_per_block``).  8 and 1024 are omitted from
#: the default grid: 8 under-fills every warp and 1024 exceeds the
#: shared-memory-per-block budget of the reduction tree on Fermi.
DEFAULT_BLOCK_CANDIDATES = (16, 32, 64, 128, 256, 512)

#: Probe runs must agree with the analytic score to this relative
#: tolerance — the estimator-consistency invariant, enforced at tune
#: time too.
PROBE_REL_TOL = 1e-9


def tuning_key(structure_digest: str, config: KPMConfig, spec: GpuSpec) -> str:
    """The cache key of one (matrix structure, workload shape, device).

    ``block_size`` is deliberately absent: the tuner *outputs* a block
    size, so the incoming config's value must not fragment the cache.
    Moments, total vectors, and precision all change the modeled
    balance between transfer, recursion, and reduction, so they key.
    """
    if not isinstance(structure_digest, str) or not structure_digest:
        raise ValidationError("structure_digest must be a non-empty string")
    if not isinstance(config, KPMConfig):
        raise ValidationError(
            f"config must be a KPMConfig, got {type(config).__name__}"
        )
    if not isinstance(spec, GpuSpec):
        raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
    return "|".join(
        (
            spec.name,
            structure_digest,
            f"N={config.num_moments}",
            f"V={config.total_vectors}",
            config.precision,
        )
    )


class Autotuner:
    """Pick (format, block_size, vector_width) per matrix structure.

    Parameters
    ----------
    spec:
        Default device the sweep prices (overridable per call — the
        pipeline passes its own spec).
    cache:
        A :class:`~repro.tune.cache.TuningCache` to consult/fill; a
        fresh empty cache by default.  Pass a loaded committed cache for
        reproducible cross-host selection.
    probe:
        When true, execute the winning candidate on a fresh simulated
        device and cross-check the analytic score (see
        :data:`PROBE_REL_TOL`).  Off by default: ``choose`` sits on the
        serve admission path, where probe execution would be wasted work.
    formats / block_candidates / vector_widths:
        The candidate grid.  Defaults cover every implemented format,
        the launchable power-of-two block sizes, and every warp-team
        width of the csr-vector program.

    Attributes
    ----------
    hits / misses / probes:
        Monotone counters, exported by :meth:`counters` for metrics
        registries.
    """

    def __init__(
        self,
        spec: GpuSpec = TESLA_C2050,
        *,
        cache: TuningCache | None = None,
        probe: bool = False,
        formats=SPMV_FORMATS,
        block_candidates=DEFAULT_BLOCK_CANDIDATES,
        vector_widths=VECTOR_WIDTHS,
    ) -> None:
        if not isinstance(spec, GpuSpec):
            raise ValidationError(f"spec must be a GpuSpec, got {type(spec).__name__}")
        formats = tuple(formats)
        for fmt in formats:
            if fmt not in SPMV_FORMATS:
                raise ValidationError(
                    f"formats must come from {SPMV_FORMATS}, got {fmt!r}"
                )
        if not formats:
            raise ValidationError("formats must not be empty")
        block_candidates = tuple(
            check_power_of_two(candidate, "block size candidate")
            for candidate in block_candidates
        )
        if not block_candidates:
            raise ValidationError("block_candidates must not be empty")
        vector_widths = tuple(vector_widths)
        for width in vector_widths:
            if width not in VECTOR_WIDTHS:
                raise ValidationError(
                    f"vector_widths must come from {VECTOR_WIDTHS}, got {width}"
                )
        self.spec = spec
        self.cache = TuningCache() if cache is None else cache
        self.probe = bool(probe)
        self.formats = formats
        self.block_candidates = block_candidates
        self.vector_widths = vector_widths
        self.hits = 0
        self.misses = 0
        self.probes = 0

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Counter snapshot (for :class:`~repro.obs.metrics.MetricsRegistry`)."""
        return {
            "tune.choose.hits": self.hits,
            "tune.choose.misses": self.misses,
            "tune.probe.runs": self.probes,
        }

    # ------------------------------------------------------------------
    def sweep(
        self,
        operator,
        config: KPMConfig,
        spec: GpuSpec | None = None,
    ) -> list[TuningChoice]:
        """Price every candidate; return them best-first.

        The order is fully deterministic: modeled seconds, then format
        order in :data:`~repro.gpukpm.SPMV_FORMATS`, then block size,
        then vector width — so equal-cost candidates always rank the
        same way on every host.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        spec = self.spec if spec is None else spec
        profile = (
            operator
            if isinstance(operator, StructureProfile)
            else structure_profile(operator)
        )
        dim = profile.dimension
        points: list[TuningChoice] = []
        for fmt in self.formats:
            widths = self.vector_widths if fmt == "csr-vector" else (1,)
            for width in widths:
                model = spmv_model_for(
                    profile, fmt, precision=config.precision, vector_width=width
                )
                for block in self.block_candidates:
                    if block > spec.max_threads_per_block:
                        continue
                    trial = config.with_updates(block_size=block)
                    try:
                        seconds = estimate_gpu_kpm_seconds(
                            spec, dim, trial, spmv=model
                        )
                    except LaunchError:
                        continue
                    points.append(
                        TuningChoice(
                            format=fmt,
                            block_size=block,
                            vector_width=width,
                            modeled_seconds=seconds,
                        )
                    )
        if not points:
            raise ValidationError(
                "no feasible tuning candidate for this device; "
                "pass smaller block_candidates"
            )
        points.sort(
            key=lambda p: (
                p.modeled_seconds,
                SPMV_FORMATS.index(p.format),
                p.block_size,
                p.vector_width,
            )
        )
        return points

    # ------------------------------------------------------------------
    def choose(
        self,
        operator,
        config: KPMConfig,
        spec: GpuSpec | None = None,
    ) -> TuningChoice:
        """The tuned choice for ``operator`` under ``config`` on ``spec``.

        Cache-first: the matrix's structure fingerprint plus the
        workload shape keys a prior sweep's winner.  On a miss the full
        candidate grid is priced analytically (and optionally probed),
        then memoized.  Recorded as a ``tune.choose`` span on the
        current tracer either way.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        spec = self.spec if spec is None else spec
        profile = structure_profile(operator)
        key = tuning_key(structure_fingerprint(profile), config, spec)
        tracer = current_tracer()
        cached = self.cache.get(key)
        if cached is not None:
            self.hits += 1
            with tracer.span(
                "tune.choose",
                category="tune",
                cache="hit",
                format=cached.format,
                block_size=cached.block_size,
                vector_width=cached.vector_width,
            ):
                pass
            return cached
        self.misses += 1
        with tracer.span("tune.choose", category="tune", cache="miss") as span:
            best = self.sweep(profile, config, spec)[0]
            if self.probe:
                best = self.probe_choice(operator, config, best, spec)
            span.set(
                format=best.format,
                block_size=best.block_size,
                vector_width=best.vector_width,
                probed=best.probed,
            )
        self.cache.put(key, best)
        return best

    # ------------------------------------------------------------------
    def probe_choice(
        self,
        operator,
        config: KPMConfig,
        choice: TuningChoice,
        spec: GpuSpec | None = None,
    ) -> TuningChoice:
        """Execute ``choice`` on a fresh device; return it probe-verified.

        Runs under a private tracer so the caller's modeled clock (e.g.
        a serve admission span) never observes the probe, then checks
        the executed modeled time against the analytic score and returns
        the choice with ``modeled_seconds`` replaced by the measured
        value and ``probed=True``.
        """
        from repro.gpukpm.pipeline import GpuKPM
        from repro.trace.tracer import Tracer

        if not isinstance(choice, TuningChoice):
            raise ValidationError(
                f"choice must be a TuningChoice, got {type(choice).__name__}"
            )
        spec = self.spec if spec is None else spec
        kpm = GpuKPM(
            spec,
            spmv_format=choice.format,
            vector_width=choice.vector_width if choice.format == "csr-vector" else None,
        )
        probe_config = config.with_updates(block_size=choice.block_size)
        probe_tracer = Tracer()
        with probe_tracer.activate():
            kpm.compute_moments(operator, probe_config)
        measured = kpm.last_device.modeled_seconds
        self.probes += 1
        rel = abs(measured - choice.modeled_seconds) / max(measured, 1e-300)
        if rel > PROBE_REL_TOL:
            raise ValidationError(
                f"probe run disagrees with analytic score for {choice.format}: "
                f"measured {measured!r} vs estimated {choice.modeled_seconds!r} "
                f"(rel {rel:.3e}) — estimator drifted from the executor"
            )
        return TuningChoice(
            format=choice.format,
            block_size=choice.block_size,
            vector_width=choice.vector_width,
            modeled_seconds=measured,
            probed=True,
        )

    # ------------------------------------------------------------------
    def prepare_operator(self, operator, choice: TuningChoice):
        """Convert ``operator`` to the storage ``choice`` executes.

        Pre-converting once (e.g. before the serve layer caches an
        operator for repeated requests) keeps the per-request pipeline
        from re-packing storage on every run.  The conversion is
        :func:`repro.sparse.as_format`, exact for every input storage,
        so numerics are unchanged; ``csr-vector`` runs on CSR storage.
        """
        if not isinstance(choice, TuningChoice):
            raise ValidationError(
                f"choice must be a TuningChoice, got {type(choice).__name__}"
            )
        fmt = "csr" if choice.format == "csr-vector" else choice.format
        return as_format(operator, fmt)
