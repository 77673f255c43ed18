"""Per-layer span tracing from outside the program.

A layer is a ``repro`` package.  :data:`LAYERS` declares the public
entry points of each one as ``"module:qualname"`` strings.
:class:`LayerTracer` replaces every binding of each entry point with a
timing wrapper while it is installed: every module attribute that *is*
the original object (entry points are imported by name in several
modules, including the benchmark's own) and, for methods, the attribute
of the defining class.  Uninstalling puts every original back.

Spans are kept in memory as ``[name, layer, start, end, parent, op_id]``
rows.  Only calls made inside an operation (:meth:`LayerTracer.op`) are
recorded.  After each operation :meth:`LayerTracer.end_op` folds the
operation's spans into per-layer totals and drops them, keeping the
first few operations for the Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

LAYERS: dict[str, tuple[str, ...]] = {
    "sparse": (
        "repro.sparse.sweep:csr_sweep_matvec",
        "repro.sparse.sweep:csr_sweep_matmat",
        "repro.sparse.sweep:ell_sweep_matvec",
        "repro.sparse.sweep:ell_sweep_matmat",
        "repro.sparse.sweep:dense_sweep_matvec",
        "repro.sparse.sweep:dense_sweep_matmat",
        "repro.sparse.csr:CSRMatrix.fingerprint",
        "repro.sparse.csr:CSRMatrix.is_symmetric",
    ),
    "gpu": (
        "repro.gpu.device:Device.launch",
        "repro.gpu.device:Device.memcpy_htod",
        "repro.gpu.device:Device.memcpy_dtoh",
        "repro.gpu.device:Device.alloc",
    ),
    "gpukpm": (
        "repro.gpukpm.pipeline:GpuKPM.compute_moments",
        "repro.gpukpm.pipeline:GpuKPM.compute_moments_resumable",
        "repro.gpukpm.pipeline:GpuKPM.extend_moments",
        "repro.gpukpm.pipeline:GpuKPM.run_partition",
        "repro.gpukpm.pipeline:GpuKPM.estimate_modeled_seconds",
    ),
    "kpm": (
        "repro.kpm.dos:compute_dos",
        "repro.kpm.rescale:rescale_operator",
        "repro.kpm.reconstruct:dos_from_moments",
        "repro.kpm.moments:stochastic_moments",
        "repro.kpm.moments:stochastic_moments_resumable",
        "repro.kpm.engines:get_engine",
        "repro.kpm.dos:validate_spectral_operator",
    ),
    "cpu": ("repro.cpu.backend:CpuModelEngine.compute_moments",),
    "cluster": ("repro.cluster.multigpu:MultiGpuKPM.compute_moments",),
    "tune": (
        "repro.tune.autotuner:Autotuner.choose",
        "repro.tune.autotuner:Autotuner.prepare_operator",
    ),
    "serve": (
        "repro.serve.gateway:Gateway.offer",
        "repro.serve.gateway:Gateway.pump",
        "repro.serve.gateway:Gateway.run_trace",
        "repro.serve.service:SpectralService.submit",
        "repro.serve.service:SpectralService.flush",
        "repro.serve.cache:MomentCache.get",
        "repro.serve.cache:MomentCache.put",
        "repro.serve.cache:MomentCache.peek_extendable",
        "repro.serve.admission:AdmissionController.admit",
        "repro.serve.health:ElasticEnginePool.rebalance",
    ),
}

#: Inclusive time of the outermost calls of these entry points, per op.
SUB_TIMINGS: dict[str, tuple[str, ...]] = {
    "kpm.reconstruct_s": ("dos_from_moments",),
    "kpm.moments_s": ("stochastic_moments", "stochastic_moments_resumable"),
    "kpm.get_engine_s": ("get_engine",),
    "gpukpm.estimate_s": ("GpuKPM.estimate_modeled_seconds",),
    "serve.offer_s": ("Gateway.offer",),
    "serve.pump_s": ("Gateway.pump",),
    "serve.flush_s": ("SpectralService.flush",),
    "tune.choose_s": ("Autotuner.choose",),
}
_SUB_TIMING_OF = {name: metric for metric, names in SUB_TIMINGS.items() for name in names}

#: Root spans with this name are operations; other roots (the paper-dos
#: numpy reference) add time to the totals but do not count as an op.
OP = "op"

#: Operations whose raw spans go into the Chrome trace.
CHROME_OPS = 2


class TargetError(LookupError):
    """A declared entry point no longer resolves (renamed or removed)."""


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _meter_matvec(counts, args, kwargs) -> None:
    # (matrix arrays..., x): the result has one row per row of x.
    x = args[-1]
    nbytes = x.nbytes
    for arg in args:
        nbytes += _nbytes(arg)
    counts["sweep_calls"] += 1
    counts["columns_swept"] += 1 if x.ndim == 1 else x.shape[1]
    counts["bytes_computed"] += nbytes


def _meter_htod(counts, args, kwargs) -> None:
    counts["htod_bytes"] += _nbytes(args[2] if len(args) > 2 else kwargs["host_array"])


def _meter_dtoh(counts, args, kwargs) -> None:
    counts["dtoh_bytes"] += _nbytes(args[1] if len(args) > 1 else kwargs["host_array"])


def _meter_partition(counts, args, kwargs) -> None:
    # A checkpointed partition hands each finished chunk to on_chunk; a
    # chunk whose hook raises (an injected crash) was computed and lost.
    hook = kwargs.get("on_chunk")
    if hook is None:
        counts["vectors_computed"] += kwargs["num_vectors"]
        counts["vectors_useful"] += kwargs["num_vectors"]
        return

    def counted(chunk):
        counts["vectors_computed"] += chunk.num_vectors
        hook(chunk)
        counts["vectors_useful"] += chunk.num_vectors

    kwargs["on_chunk"] = counted


METERS = {
    **{
        f"repro.sparse.sweep:{kind}_sweep_{shape}": _meter_matvec
        for kind in ("csr", "ell", "dense")
        for shape in ("matvec", "matmat")
    },
    "repro.gpu.device:Device.memcpy_htod": _meter_htod,
    "repro.gpu.device:Device.memcpy_dtoh": _meter_dtoh,
    "repro.gpukpm.pipeline:GpuKPM.run_partition": _meter_partition,
}

COUNTS = (
    "sweep_calls",
    "columns_swept",
    "bytes_computed",
    "htod_bytes",
    "dtoh_bytes",
    "vectors_computed",
    "vectors_useful",
)


def resolve(target: str):
    """Return ``(original, owner_class_or_None, attribute_name)``.

    Methods resolve to the class that defines them (its ``__dict__``
    holds the function), so inherited calls are traced too.
    """
    module_name, sep, qualname = target.partition(":")
    if not sep or not qualname:
        raise TargetError(f"{target!r} is not of the form 'module:qualname'")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetError(f"{target}: module {module_name!r} does not import") from exc
    *path, attr = qualname.split(".")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            raise TargetError(f"{target}: {part!r} not found")
    if isinstance(obj, types.ModuleType):
        original = getattr(obj, attr, None)
        if not isinstance(original, types.FunctionType):
            raise TargetError(f"{target}: not a function in {module_name}")
        return original, None, attr
    if not isinstance(obj, type):
        raise TargetError(f"{target}: {'.'.join(path)} is not a class")
    for klass in obj.__mro__:
        if attr in vars(klass):
            original = vars(klass)[attr]
            if not isinstance(original, types.FunctionType):
                raise TargetError(f"{target}: {attr!r} is not a plain method")
            return original, klass, attr
    raise TargetError(f"{target}: {obj.__name__} has no attribute {attr!r}")


def _module_bindings(objects: dict[int, object]):
    """Yield ``(module, name, value)`` for every module attribute in ``objects``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if id(value) in objects and objects[id(value)] is value:
                yield module, name, value


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the union of the children's intervals."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


class LayerTracer:
    """Installs timing wrappers on :data:`LAYERS` and aggregates spans."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.chrome_spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = None
        self._ops_done = 0
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, object] = {}
        self.num_ops = 0
        self.root_wall = 0.0
        self.root_self = 0.0
        self.self_s = dict.fromkeys(layers, 0.0)
        self.calls = dict.fromkeys(layers, 0)
        self.name_calls: dict[str, int] = {}
        self.sub_s = dict.fromkeys(SUB_TIMINGS, 0.0)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every declared entry point; raise :class:`TargetError` first."""
        resolved = [
            (layer, target, *resolve(target))
            for layer, targets in self.layers.items()
            for target in targets
        ]
        names = [target.partition(":")[2] for _, target, *_ in resolved]
        if len(set(names)) != len(names):
            raise TargetError("layer entry points must have distinct qualnames")
        originals: dict[int, object] = {}
        for layer, target, original, klass, attr in resolved:
            wrapper = self._wrap(
                original, target.partition(":")[2], layer, METERS.get(target)
            )
            originals[id(original)] = original
            self._originals[id(original)] = wrapper
            self._wrappers[id(wrapper)] = original
            if klass is not None:
                setattr(klass, attr, wrapper)
                self._installed.append((klass, attr, original))
        for module, name, original in _module_bindings(originals):
            setattr(module, name, self._originals[id(original)])
            self._installed.append((module, name, original))
        return self

    def uninstall(self) -> None:
        """Restore every binding, including ones imported after install."""
        for container, name, original in reversed(self._installed):
            setattr(container, name, original)
        wrappers = {id(w): w for w in self._originals.values()}
        for module, name, wrapper in _module_bindings(wrappers):
            setattr(module, name, self._wrappers[id(wrapper)])
        self._installed.clear()
        self._originals.clear()
        self._wrappers.clear()

    def _wrap(self, original, name: str, layer: str, meter):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return original(*args, **kwargs)
            if meter is not None:
                meter(counts, args, kwargs)
            record = [name, layer, 0.0, 0.0, stack[-1], self._op_id]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, op_id: int, name: str = OP):
        """Record one root span; layer calls inside it become its descendants."""
        record = [name, "op", 0.0, 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._op_id = op_id
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._op_id = None
            self._stack.pop()

    def end_op(self) -> None:
        """Fold the spans recorded since the last call into the totals."""
        spans = self.spans
        children: list[list[tuple[float, float]]] = [[] for _ in spans]
        for record in spans:
            if record[4] is not None:
                children[record[4]].append((record[2], record[3]))
        for index, (name, layer, start, end, parent, _) in enumerate(spans):
            own = self_time(start, end, children[index])
            if parent is None:
                self.root_wall += end - start
                self.root_self += own
                self.num_ops += name == OP
                continue
            self.self_s[layer] += own
            self.calls[layer] += 1
            self.name_calls[name] = self.name_calls.get(name, 0) + 1
        for index, record in enumerate(spans):
            metric = _SUB_TIMING_OF.get(record[0])
            if metric is not None and not self._has_ancestor(index, metric):
                self.sub_s[metric] += record[3] - record[2]
        if self._ops_done < CHROME_OPS:
            self.chrome_spans.extend(spans)
        self._ops_done += 1
        del spans[:]

    def _has_ancestor(self, index: int, metric: str) -> bool:
        parent = self.spans[index][4]
        while parent is not None:
            if _SUB_TIMING_OF.get(self.spans[parent][0]) == metric:
                return True
            parent = self.spans[parent][4]
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-op layer metrics over every operation folded so far."""
        ops = max(1, self.num_ops)
        wall = self.root_wall or 1.0
        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer}.self_s"] = self.self_s[layer] / ops
            out[f"{layer}.share"] = self.self_s[layer] / wall
            out[f"{layer}.calls"] = self.calls[layer] / ops
        out["sparse.sweep_calls"] = self.counts["sweep_calls"] / ops
        out["sparse.columns_swept"] = self.counts["columns_swept"] / ops
        out["sparse.bytes_computed"] = self.counts["bytes_computed"] / ops
        out["gpu.launches"] = self.name_calls.get("Device.launch", 0) / ops
        out["gpu.htod_bytes"] = self.counts["htod_bytes"] / ops
        out["gpu.dtoh_bytes"] = self.counts["dtoh_bytes"] / ops
        for metric, total in self.sub_s.items():
            out[metric] = total / ops
        out["gpukpm.estimate_calls"] = (
            self.name_calls.get("GpuKPM.estimate_modeled_seconds", 0) / ops
        )
        computed = self.counts["vectors_computed"]
        out["cluster.useful_vector_ratio"] = (
            self.counts["vectors_useful"] / computed if computed else 1.0
        )
        out["unattributed_share"] = self.root_self / wall
        return out

    def write(self, chrome_path: Path, layers_path: Path) -> None:
        """Write the kept spans as a Chrome trace and the totals as JSON."""
        origin = min((s[2] for s in self.chrome_spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op_id},
            }
            for name, layer, start, end, _, op_id in self.chrome_spans
        ]
        chrome_path.write_text(json.dumps({"traceEvents": events}))
        layers_path.write_text(
            json.dumps(
                {
                    "ops": self.num_ops,
                    "calls_by_entry_point": self.name_calls,
                    "counts": self.counts,
                    "metrics": self.metrics(),
                },
                indent=1,
                sort_keys=True,
            )
        )
