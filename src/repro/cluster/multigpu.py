"""Vector-partitioned KPM across a cluster of simulated GPUs.

Design (one MPI rank per GPU node, the paper's future-work setting):

1. **Broadcast** ``H~`` to all nodes — a binomial tree, ``ceil(log2 G)``
   network stages of the full matrix payload.
2. **Compute** — node ``g`` runs the unmodified single-GPU pipeline on
   its contiguous slice of the ``R*S`` vector range.  Global vector
   numbering keeps the Philox streams identical to a single-device run,
   so every moment row, and (double precision) the reduced moments, are
   bit-identical to that run's.
3. **All-reduce** the ``N`` partial moment sums (tree again).

The modeled wall time is ``broadcast + max_g(node time) + allreduce``;
because the compute term shrinks like ``1/G`` while the communication
terms do not, the model exhibits the expected strong-scaling knee — the
ablation benchmark locates it.

**Fault tolerance** (docs/RESILIENCE.md): one driver loop runs every
cluster job in rounds; a fault-free job is its round 0.  When a
:class:`~repro.cluster.FaultSchedule` and/or ``checkpoint_every`` is
given, :class:`MultiGpuKPM` runs in *resilient* mode — per-partition
moment tables are checkpointed in chunks, crashed nodes' unfinished
vector ranges are rebalanced over the survivors, corrupted transfers are
retransmitted under a capped :class:`~repro.cluster.RetryPolicy` budget,
and the recovered run reproduces the **bit-identical**
:class:`~repro.kpm.MomentData` of a fault-free run (each moment row is a
pure function of its global Philox stream index).  The overhead is
honestly charged to the ``"recovery"`` and ``"rebalance"`` phases of the
:class:`~repro.timing.TimingReport`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from repro.cluster.faults import FaultSchedule
from repro.cluster.policy import RetryBudget, RetryPolicy
from repro.errors import DeviceError, DeviceLostError, FaultError, ValidationError
from repro.gpu.spec import TESLA_C2050, GpuSpec
from repro.gpukpm.estimator import gpu_kpm_breakdown
from repro.gpukpm.pipeline import CheckpointChunk, GpuKPM
from repro.gpukpm.spmv import _itemsize, _matvec_model
from repro.kpm.config import KPMConfig
from repro.kpm.moments import MomentData, reduce_moment_table
from repro.trace.tracer import current_tracer
from repro.sparse import as_operator
from repro.timing import TimingReport, WallTimer
from repro.util.validation import check_positive_int

__all__ = [
    "InterconnectSpec",
    "GIGABIT_ETHERNET",
    "INFINIBAND_QDR",
    "MultiGpuKPM",
    "multigpu_breakdown",
    "estimate_multigpu_seconds",
    "broadcast_seconds",
    "allreduce_seconds",
]

_FLOAT = 8
#: Payload of one rebalance coordination message: (start, count, node).
_RANGE_MSG_BYTES = 24


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point network model between cluster nodes."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValidationError("bandwidth_bytes_per_s must be positive")
        if self.latency_s < 0:
            raise ValidationError("latency_s must be >= 0")

    def message_seconds(self, nbytes: float) -> float:
        """Time for one point-to-point message."""
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


#: 2011-era commodity cluster link.
GIGABIT_ETHERNET = InterconnectSpec("Gigabit Ethernet", 110e6, 50e-6)
#: 2011-era HPC cluster link.
INFINIBAND_QDR = InterconnectSpec("InfiniBand QDR", 3.2e9, 2e-6)


def _partition(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous (start, count) slices."""
    base, extra = divmod(total, parts)
    slices = []
    start = 0
    for g in range(parts):
        count = base + (1 if g < extra else 0)
        slices.append((start, count))
        start += count
    return slices


def _tree_stages(num_devices: int) -> int:
    return math.ceil(math.log2(num_devices)) if num_devices > 1 else 0


def broadcast_seconds(
    interconnect: InterconnectSpec,
    dimension: int,
    num_devices: int,
    *,
    spmv=None,
    precision: str = "double",
) -> float:
    """Binomial-tree broadcast of ``H~`` to ``num_devices`` nodes.

    The single source of the broadcast cost formula: the functional
    driver, the analytic estimator, and the recovery accounting all call
    this helper, so they cannot drift apart.  The payload is the exact
    per-format upload arrays of ``spmv`` (a
    :class:`~repro.gpukpm.spmv.SpmvModel`); ``None`` broadcasts the
    dense ``precision``-sized matrix.
    """
    stages = _tree_stages(num_devices)
    matrix = _matvec_model(spmv, dimension, _itemsize(precision))
    return stages * interconnect.message_seconds(float(sum(matrix.upload_bytes)))


def allreduce_seconds(
    interconnect: InterconnectSpec, num_moments: int, num_devices: int
) -> float:
    """Tree all-reduce of the ``N`` moment sums over ``num_devices`` nodes.

    Shared by the functional driver and the analytic estimator (see
    :func:`broadcast_seconds`).
    """
    stages = _tree_stages(num_devices)
    return 2 * stages * interconnect.message_seconds(num_moments * _FLOAT)


def multigpu_breakdown(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    num_devices: int,
    *,
    interconnect: InterconnectSpec = INFINIBAND_QDR,
    spmv=None,
) -> dict[str, float]:
    """Modeled seconds per phase of the (fault-free) cluster run.

    Keys: ``"broadcast"``, ``"compute"`` (slowest node), ``"allreduce"``.
    """
    num_devices = check_positive_int(num_devices, "num_devices")
    if num_devices > config.total_vectors:
        raise ValidationError(
            f"num_devices ({num_devices}) exceeds the number of random "
            f"vectors ({config.total_vectors}); idle devices are a "
            "configuration error"
        )
    broadcast = broadcast_seconds(
        interconnect,
        dimension,
        num_devices,
        spmv=spmv,
        precision=config.precision,
    )
    allreduce = allreduce_seconds(interconnect, config.num_moments, num_devices)

    slices = _partition(config.total_vectors, num_devices)
    compute = 0.0
    for _, count in slices:
        node_cfg = config.with_updates(
            num_random_vectors=count, num_realizations=1
        )
        node = sum(gpu_kpm_breakdown(spec, dimension, node_cfg, spmv=spmv).values())
        compute = max(compute, node)
    return {"broadcast": broadcast, "compute": compute, "allreduce": allreduce}


def estimate_multigpu_seconds(
    spec: GpuSpec,
    dimension: int,
    config: KPMConfig,
    num_devices: int,
    *,
    interconnect: InterconnectSpec = INFINIBAND_QDR,
    spmv=None,
) -> float:
    """Total modeled cluster wall time (sum of the breakdown)."""
    return sum(
        multigpu_breakdown(
            spec,
            dimension,
            config,
            num_devices,
            interconnect=interconnect,
            spmv=spmv,
        ).values()
    )


class _NodeRun:
    """Outcome of one node executing one assigned vector range."""

    __slots__ = ("useful_seconds", "wasted_seconds", "survived", "leftover")

    def __init__(self, useful, wasted, survived, leftover):
        self.useful_seconds = useful
        self.wasted_seconds = wasted
        self.survived = survived
        self.leftover = leftover  # (start, count) still to compute, or None


class MultiGpuKPM:
    """Functional multi-device KPM over simulated GPUs.

    Each device executes its vector partition through the unmodified
    single-GPU pipeline; the host plays the role of the MPI layer
    (broadcast + all-reduce are charged to the interconnect model).

    Implements the :class:`~repro.kpm.engines.MomentEngine` protocol
    (``name`` + :meth:`compute_moments`); the default geometry is
    registered as the ``"cluster"`` backend, and configured instances can
    be passed to ``compute_dos(..., backend=MultiGpuKPM(8))`` or pooled
    by :mod:`repro.serve`.

    Parameters
    ----------
    num_devices:
        Cluster size ``G``.
    spec:
        Per-node device model.
    interconnect:
        Network model for the collectives (and recovery traffic).
    fault_schedule:
        Deterministic fault campaign to inject
        (:class:`~repro.cluster.FaultSchedule`).  Enables resilient mode.
    policy:
        Retry/backoff knobs (:class:`~repro.cluster.RetryPolicy`);
        defaults to ``RetryPolicy()`` in resilient mode.
    checkpoint_every:
        Vectors per checkpoint chunk in resilient mode (default: one
        chunk per partition — a crash then loses the whole partition's
        work, but recovery still succeeds).  Also enables resilient mode
        on its own, for measuring pure checkpoint overhead.
    """

    name = "cluster"

    def __init__(
        self,
        num_devices: int,
        spec: GpuSpec = TESLA_C2050,
        *,
        interconnect: InterconnectSpec = INFINIBAND_QDR,
        fault_schedule: FaultSchedule | None = None,
        policy: RetryPolicy | None = None,
        checkpoint_every: int | None = None,
        tuner=None,
        spmv_format: str | None = None,
        vector_width: int | None = None,
    ):
        self.num_devices = check_positive_int(num_devices, "num_devices")
        # One per-node pipeline carrying the cluster's tuning policy; it
        # validates the device settings here.  Every node runs the same
        # (format, block, width) choice — the broadcast ships one storage
        # layout, and bit-identity across partitionings requires
        # identical per-node numerics anyway.
        self._runner = GpuKPM(
            spec, tuner=tuner, spmv_format=spmv_format, vector_width=vector_width
        )
        self.spec = spec
        self.interconnect = interconnect
        if fault_schedule is not None and not isinstance(fault_schedule, FaultSchedule):
            raise ValidationError(
                "fault_schedule must be a FaultSchedule, got "
                f"{type(fault_schedule).__name__}"
            )
        if policy is not None and not isinstance(policy, RetryPolicy):
            raise ValidationError(
                f"policy must be a RetryPolicy, got {type(policy).__name__}"
            )
        if checkpoint_every is not None:
            checkpoint_every = check_positive_int(checkpoint_every, "checkpoint_every")
        self.fault_schedule = fault_schedule
        self.policy = policy
        self.checkpoint_every = checkpoint_every

    # ------------------------------------------------------------------
    @property
    def resilient(self) -> bool:
        """True when the driver runs with checkpoint/recovery machinery."""
        return self.fault_schedule is not None or self.checkpoint_every is not None

    def run(self, scaled_operator, config: KPMConfig) -> tuple[MomentData, TimingReport]:
        """Deprecated alias of :meth:`compute_moments`."""
        warnings.warn(
            "MultiGpuKPM.run() is deprecated; use "
            "MultiGpuKPM.compute_moments() (the MomentEngine protocol method)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.compute_moments(scaled_operator, config)

    def compute_moments(
        self, scaled_operator, config: KPMConfig
    ) -> tuple[MomentData, TimingReport]:
        """Run the partitioned pipeline; moments match a single-device run.

        In resilient mode the returned ``MomentData`` is *bit-identical*
        to the fault-free run and the report's breakdown carries the
        extra ``"recovery"`` and ``"rebalance"`` phases.
        """
        if not isinstance(config, KPMConfig):
            raise ValidationError(
                f"config must be a KPMConfig, got {type(config).__name__}"
            )
        op = as_operator(scaled_operator)
        total = config.total_vectors
        if self.num_devices > total:
            raise ValidationError(
                f"num_devices ({self.num_devices}) exceeds the number of "
                f"random vectors ({total})"
            )
        with current_tracer().span(
            "cluster.run",
            category="cluster",
            num_devices=self.num_devices,
            interconnect=self.interconnect.name,
            resilient=self.resilient,
        ):
            return self._run(op, config)

    # ------------------------------------------------------------------
    def _run(self, op, config: KPMConfig) -> tuple[MomentData, TimingReport]:
        """The one cluster driver: rounds of node runs until the table is full.

        Round 0 runs the initial partition.  Without a fault schedule or
        ``checkpoint_every`` each node launches its partition once, no
        node can crash, and the run ends after round 0 with the
        three-phase breakdown.  In resilient mode the nodes checkpoint in
        chunks and crashed nodes' unfinished ranges are rebalanced over
        the survivors in later rounds.

        Accounting convention (docs/RESILIENCE.md): ``"compute"`` is the
        slowest node's *useful* (checkpointed) work in the initial round;
        ``"rebalance"`` is coordination messages plus the slowest
        survivor's work per recovery round; ``"recovery"`` collects every
        other fault-induced cost — work lost past the last checkpoint,
        straggler excess, retry backoffs, and retransmissions.
        """
        dim = op.shape[0]
        total = config.total_vectors
        num_moments = config.num_moments
        spmv, config = self._runner.resolve_spmv(op, config)
        schedule = self.fault_schedule if self.fault_schedule is not None else FaultSchedule()
        policy = self.policy if self.policy is not None else RetryPolicy()
        if schedule.max_node() >= self.num_devices:
            raise ValidationError(
                f"fault schedule references node {schedule.max_node()} but the "
                f"cluster has {self.num_devices} node(s)"
            )
        budget = policy.budget()

        table = np.zeros((total, num_moments), dtype=np.float64)
        filled = np.zeros(total, dtype=bool)
        compute = 0.0
        rebalance = 0.0
        recovery = 0.0
        tracer = current_tracer()
        broadcast = broadcast_seconds(
            self.interconnect, dim, self.num_devices, spmv=spmv
        )

        with WallTimer() as timer:
            with tracer.span("cluster.broadcast", category="cluster"):
                tracer.advance(broadcast)
            alive = list(range(self.num_devices))
            assignments = [
                (node, span)
                for node, span in zip(alive, _partition(total, self.num_devices))
            ]
            round_idx = 0
            while assignments:
                if round_idx > 0:
                    budget.spend(f"rebalance round {round_idx}")
                    backoff = policy.backoff_seconds(round_idx - 1)
                    recovery += backoff
                    with tracer.span(
                        "cluster.recovery",
                        category="cluster",
                        cause="backoff",
                        round=round_idx,
                    ):
                        tracer.advance(backoff)
                    coordination = len(assignments) * self.interconnect.message_seconds(
                        _RANGE_MSG_BYTES
                    )
                    rebalance += coordination
                    with tracer.span(
                        "cluster.rebalance",
                        category="cluster",
                        round=round_idx,
                        assignments=len(assignments),
                    ):
                        tracer.advance(coordination)
                node_useful: dict[int, float] = {}
                lost: list[tuple[int, int]] = []
                # The trace clock lays parallel node work end to end for
                # attribution; the report keeps the slowest node.  Only
                # resilient node spans carry the round and the outcome.
                in_round = {"round": round_idx} if self.resilient else {}
                for node, span in assignments:
                    with tracer.span(
                        "cluster.node",
                        category="cluster",
                        node=node,
                        **in_round,
                        first_vector=span[0],
                        num_vectors=span[1],
                    ) as node_span:
                        outcome = self._run_node(
                            op, config, schedule,
                            node=node, span=span, round_idx=round_idx,
                            table=table, filled=filled,
                        )
                        if self.resilient:
                            node_span.set(survived=outcome.survived)
                    node_useful[node] = (
                        node_useful.get(node, 0.0) + outcome.useful_seconds
                    )
                    # The wasted (un-checkpointed) chunk already advanced
                    # the trace clock inside the node span's device work;
                    # only the straggler excess is new modeled time.
                    recovery += outcome.wasted_seconds
                    straggler = schedule.straggler_for(node, round_idx)
                    if straggler is not None:
                        busy = outcome.useful_seconds + outcome.wasted_seconds
                        excess = busy * (straggler.slowdown - 1.0)
                        recovery += excess
                        with tracer.span(
                            "cluster.recovery",
                            category="cluster",
                            cause="straggler",
                            node=node,
                            round=round_idx,
                        ):
                            tracer.advance(excess)
                    if not outcome.survived:
                        alive.remove(node)
                        if outcome.leftover is not None:
                            lost.append(outcome.leftover)
                round_busy = max(node_useful.values(), default=0.0)
                if round_idx == 0:
                    compute = round_busy
                else:
                    rebalance += round_busy
                if lost and not alive:
                    raise FaultError(
                        "all cluster nodes crashed; no survivor to rebalance "
                        f"{len(lost)} unfinished vector range(s) onto"
                    )
                assignments = []
                for lstart, lcount in lost:
                    parts = _partition(lcount, min(len(alive), lcount))
                    for idx, (off, cnt) in enumerate(parts):
                        assignments.append((alive[idx], (lstart + off, cnt)))
                round_idx += 1

            # Transient transfer corruption at the all-reduce: detected by
            # checksum, retransmitted after backoff.  Sender data is
            # intact, so only time is lost.
            for node in alive:
                event = schedule.transfer_for(node)
                if event is None:
                    continue
                retransmit = 0.0
                for attempt in range(event.count):
                    budget.spend(f"retransmission from node {node}")
                    retransmit += policy.backoff_seconds(attempt)
                    retransmit += self.interconnect.message_seconds(
                        num_moments * _FLOAT
                    )
                recovery += retransmit
                with tracer.span(
                    "cluster.recovery",
                    category="cluster",
                    cause="retransmit",
                    node=node,
                    attempts=event.count,
                ):
                    tracer.advance(retransmit)
            allreduce = allreduce_seconds(self.interconnect, num_moments, len(alive))
            with tracer.span("cluster.allreduce", category="cluster"):
                tracer.advance(allreduce)

        if not bool(filled.all()):  # pragma: no cover - driver invariant
            raise DeviceError(
                "cluster driver finished with unfilled moment rows; this is "
                "a bug in the rebalancing bookkeeping"
            )
        breakdown = {"broadcast": broadcast, "compute": compute}
        if self.resilient:
            breakdown.update(rebalance=rebalance, recovery=recovery)
        breakdown["allreduce"] = allreduce
        data = reduce_moment_table(table, config.num_random_vectors, dim)
        suffix = ",resilient" if self.resilient else ""
        report = TimingReport(
            backend=f"multi-gpu-sim(x{self.num_devices}{suffix})",
            device=f"{self.num_devices} x {self.spec.name} over {self.interconnect.name}",
            modeled_seconds=sum(breakdown.values()),
            wall_seconds=timer.seconds,
            breakdown=dict(breakdown),
        )
        return data, report

    def _run_node(
        self,
        op,
        config: KPMConfig,
        schedule: FaultSchedule,
        *,
        node: int,
        span: tuple[int, int],
        round_idx: int,
        table: np.ndarray,
        filled: np.ndarray,
    ) -> _NodeRun:
        """Execute one assigned range on ``node``, injecting its faults.

        A fault-free node launches its range once; a resilient one hands
        each finished chunk to ``on_chunk``, which checkpoints its rows.
        """
        start, count = span
        crash = schedule.crash_for(node, round_idx)
        state = {"chunks": 0, "wasted": 0.0, "next": start}

        def on_chunk(chunk: CheckpointChunk) -> None:
            if crash is not None and state["chunks"] >= crash.completed_chunks:
                # Died mid-chunk: the chunk was computed but never
                # checkpointed, so its time is pure loss.
                state["wasted"] += chunk.modeled_seconds
                raise DeviceLostError(
                    f"node {node} crashed in round {round_idx} after "
                    f"{state['chunks']} checkpointed chunk(s)"
                )
            stop = chunk.first_vector + chunk.num_vectors
            table[chunk.first_vector : stop] = chunk.rows
            filled[chunk.first_vector : stop] = True
            state["chunks"] += 1
            state["next"] = stop

        try:
            rows, _, _ = self._runner.run_partition(
                op,
                config,
                first_vector=start,
                num_vectors=count,
                checkpoint_every=self.checkpoint_every,
                on_chunk=on_chunk if self.resilient else None,
            )
        except DeviceLostError:
            survived = False
        else:
            # A survivor's rows are final; a crashed node keeps only the
            # rows its chunks checkpointed.
            survived = True
            table[start : start + count] = rows
            filled[start : start + count] = True
        device_total = self._runner.last_device.modeled_seconds
        # Fixed overhead (setup + H~ upload) is required work even
        # fault-free; only the un-checkpointed chunk counts as waste.
        useful = device_total - state["wasted"]
        leftover = None
        if not survived and state["next"] < start + count:
            leftover = (state["next"], start + count - state["next"])
        return _NodeRun(useful, state["wasted"], survived, leftover)
