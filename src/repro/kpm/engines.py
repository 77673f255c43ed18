"""Execution-backend registry for moment computation.

A *moment engine* is anything with

    compute_moments(scaled_operator, config) -> (MomentData, TimingReport)

The registry decouples the KPM pipeline from the execution substrate:

* ``"numpy"``     — the vectorized host reference (this module).
* ``"cpu-model"`` — same numerics plus the Core i7 930 cost model
  (:mod:`repro.cpu`).
* ``"gpu-sim"``   — the paper's CUDA design on the simulated Tesla C2050
  (:mod:`repro.gpukpm`).
* ``"cluster"``   — the multi-GPU driver over the default interconnect
  (:mod:`repro.cluster`).

Backends with heavyweight imports register lazily via a factory string.
:func:`get_engine` also passes through a ready-made engine *instance*, so
``compute_dos(H, cfg, backend=GpuKPM(GTX_580))`` works without touching
the registry.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol, runtime_checkable

from repro.errors import ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.moments import (
    MomentData,
    RecursionState,
    extend_stochastic_moments,
    stochastic_moments,
    stochastic_moments_resumable,
)
from repro.timing import TimingReport, WallTimer

__all__ = [
    "MomentEngine",
    "ResumableMomentEngine",
    "NumpyEngine",
    "register_engine",
    "get_engine",
    "available_backends",
]


@runtime_checkable
class MomentEngine(Protocol):
    """Structural type of an execution backend."""

    name: str

    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]: ...


@runtime_checkable
class ResumableMomentEngine(Protocol):
    """Backend that can checkpoint and extend the Chebyshev recursion.

    ``compute_moments_resumable`` behaves like ``compute_moments`` but
    additionally returns a :class:`~repro.kpm.moments.RecursionState`;
    ``extend_moments`` resumes from a state (of any engine that ran the
    same recursion in the same dtype) to a higher truncation order,
    returning the full extended :class:`MomentData` (bit-identical to a
    cold run at the higher order) plus the advanced state.  The serving
    layer feature-detects this protocol to extend cached moments in
    place instead of recomputing from ``mu_0``.
    """

    name: str

    def compute_moments_resumable(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport, RecursionState | None]: ...

    def extend_moments(
        self, scaled_operator, config: KPMConfig, data: MomentData, state
    ) -> tuple[MomentData, TimingReport, RecursionState]: ...


class NumpyEngine:
    """Vectorized host reference backend (no hardware model).

    Runs :func:`repro.kpm.stochastic_moments` directly; the timing report
    carries only the measured wall clock.  Implements
    :class:`ResumableMomentEngine` via the host trace (float64 always).
    """

    name = "numpy"

    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]:
        with WallTimer() as timer:
            data = stochastic_moments(scaled_operator, config)
        report = TimingReport(backend=self.name, wall_seconds=timer.seconds)
        return data, report

    def compute_moments_resumable(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport, RecursionState]:
        with WallTimer() as timer:
            data, state = stochastic_moments_resumable(scaled_operator, config)
        report = TimingReport(backend=self.name, wall_seconds=timer.seconds)
        return data, report, state

    def extend_moments(
        self, scaled_operator, config: KPMConfig, data: MomentData, state
    ) -> tuple[MomentData, TimingReport, RecursionState]:
        with WallTimer() as timer:
            extended, advanced = extend_stochastic_moments(
                scaled_operator, config, data, state
            )
        report = TimingReport(backend=self.name, wall_seconds=timer.seconds)
        return extended, report, advanced


_FACTORIES: dict[str, Callable[[], MomentEngine]] = {}


def register_engine(name: str, factory: Callable[[], MomentEngine]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not isinstance(name, str) or not name:
        raise ValidationError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ValidationError("factory must be callable")
    _FACTORIES[name] = factory


def _lazy_cpu_model() -> MomentEngine:
    from repro.cpu.backend import CpuModelEngine

    return CpuModelEngine()


def _lazy_gpu_sim() -> MomentEngine:
    from repro.gpukpm.pipeline import GpuKPM

    return GpuKPM()


#: Cluster size of the default ``"cluster"`` registry entry; workloads
#: needing another geometry pass a configured ``MultiGpuKPM`` instance.
DEFAULT_CLUSTER_DEVICES = 4


def _lazy_cluster() -> MomentEngine:
    from repro.cluster.multigpu import MultiGpuKPM

    return MultiGpuKPM(DEFAULT_CLUSTER_DEVICES)


register_engine("numpy", NumpyEngine)
register_engine("cpu-model", _lazy_cpu_model)
register_engine("gpu-sim", _lazy_gpu_sim)
register_engine("cluster", _lazy_cluster)


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_engine` / ``compute_dos(backend=...)``."""
    return tuple(sorted(_FACTORIES))


def get_engine(backend: str | MomentEngine) -> MomentEngine:
    """Resolve ``backend`` — a registry name or an engine instance.

    A non-string object implementing the :class:`MomentEngine` protocol
    is returned unchanged, so callers can hand a configured engine (e.g.
    ``GpuKPM(GTX_580)`` or ``MultiGpuKPM(8)``) anywhere a backend name is
    accepted.
    """
    if not isinstance(backend, str):
        if isinstance(backend, MomentEngine):
            return backend
        raise ValidationError(
            f"backend must be one of {', '.join(available_backends())} or a "
            "MomentEngine instance (an object with a 'name' and "
            "compute_moments(scaled_operator, config)); got "
            f"{type(backend).__name__}"
        )
    try:
        factory = _FACTORIES[backend]
    except KeyError:
        raise ValidationError(
            f"unknown backend {backend!r}; available names: "
            f"{', '.join(available_backends())} (a MomentEngine instance is "
            "also accepted)"
        ) from None
    engine = factory()
    if not isinstance(engine, MomentEngine):
        raise ValidationError(
            f"backend factory for {backend!r} returned an object without "
            "compute_moments(); see repro.kpm.engines.MomentEngine"
        )
    return engine
