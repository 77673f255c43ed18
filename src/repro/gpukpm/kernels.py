"""Device kernels of the GPU KPM (paper Fig. 4).

The recursion/reduction pair is exactly the paper's two parallel parts:

* :func:`kpm_recursion_kernel` — part (a): each block generates its
  random vectors, runs the full N-order Chebyshev recursion over them,
  and writes the per-vector moments ``mu~_n`` to global memory.  The
  emulator advances a block's vectors in lockstep, one
  :meth:`DeviceMatrix.matmat` sweep of their ``(D, B)`` panel per order;
  the modeled block walks them one by one through the paper's 4-vector
  global-memory workspace (pointer-swapped, Fig. 4a), which the cost
  model prices and the pipeline allocates.  A cold or a resume prologue
  seeds the recursion; one step loop then serves both modes.
* :func:`reduce_moments_kernel` — part (b): parallel mean of the
  ``mu~`` table over the ``R*S`` vectors (paper Fig. 4b).

There is no standalone SpMV program: each storage format (dense, CSR,
CSR-vector, ELL) runs inside :func:`kpm_recursion_kernel` through
:meth:`DeviceMatrix.matmat`, and the autotuner (:mod:`repro.tune`)
confirms a choice by running ``GpuKPM.compute_moments`` in it.

Every matrix product — device-resident or host-side — runs the
*canonical contraction order* of :mod:`repro.sparse.sweep`, so the
storage format and the CSR program flavor (scalar vs warp-vector)
change modeled cost but never numerics.  On real hardware a
warp-per-row program would reduce partial sums in a tree; here the
tree lives only in the cost model (``SpmvModel`` FLOPs/coalescing) while
the functional semantics stay canonical — that is what lets the tuner
switch formats per matrix under the serving layer's bit-identical
replay guarantee.

Charges are the shared accounting of :mod:`repro.gpukpm.stats` /
:mod:`repro.gpukpm.spmv`, so an executed launch prices identically to
the analytic estimator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceError
from repro.gpu.contracts import ArraySpec, KernelContract, LaunchMode, MatrixSpec
from repro.gpu.kernel import kernel
from repro.kpm.random_vectors import random_vector
from repro.sparse.sweep import (
    csr_sweep_matmat,
    csr_sweep_matvec,
    dense_sweep_matmat,
    dense_sweep_matvec,
    ell_sweep_matmat,
    ell_sweep_matvec,
)

__all__ = [
    "DeviceMatrix",
    "kpm_recursion_kernel",
    "reduce_moments_kernel",
]


class DeviceMatrix:
    """The uploaded Hamiltonian: dense buffer, CSR triple, or ELL pair.

    Thin functional wrapper the kernels multiply with; the storage
    choice also selects the cost accounting (dense sweep vs CSR gather
    vs padded ELL stream) through the pipeline's ``SpmvModel``.

    CSR and ELL storage take ``plan``, the host operator's checked
    :class:`~repro.sparse.sweep.SweepPlan`, and every sweep follows it:
    no upload rebuilds a pattern, no sweep scans one, and no pattern is
    read from device memory (the device sanitizer tracks every
    device-buffer access).  The device index buffers hold the same
    pattern for the transfers and the memory plan.  Each product reads
    only the device values.  ``GpuKPM._upload_matrix`` is the one
    upload that builds these.
    """

    def __init__(
        self,
        *,
        dense=None,
        csr_data=None,
        csr_indices=None,
        csr_indptr=None,
        ell_data=None,
        ell_indices=None,
        shape=None,
        plan=None,
        nnz=None,
    ):
        self.dense = None
        self.csr = None
        self.ell = None
        self.plan = plan
        if dense is not None:
            self.dense = dense
            self.shape = dense.shape
            self.nnz = None
            self.format = "dense"
        elif csr_data is not None:
            if any(arg is None for arg in (csr_indices, csr_indptr, shape, plan)):
                raise DeviceError(
                    "CSR DeviceMatrix needs data, indices, indptr, shape, plan"
                )
            self.csr = (csr_data, csr_indices, csr_indptr)
            self.shape = shape
            self.nnz = int(csr_data.shape[0])
            self.format = "csr"
        elif ell_data is not None:
            if any(arg is None for arg in (ell_indices, shape, plan)):
                raise DeviceError("ELL DeviceMatrix needs data, indices, shape, plan")
            self.ell = (ell_data, ell_indices)
            self.shape = shape
            self.nnz = int(nnz) if nnz is not None else None
            self.format = "ell"
        else:
            raise DeviceError("DeviceMatrix needs dense, CSR, or ELL storage")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``H~ @ x`` against the device-resident storage (canonical order)."""
        if self.dense is not None:
            return dense_sweep_matvec(self.dense.data, x)
        if self.csr is not None:
            return csr_sweep_matvec(self.csr[0].data, self.plan, x)
        return ell_sweep_matvec(self.ell[0].data, self.plan, x)

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """``H~ @ B`` for a ``(D, k)`` panel; column j equals ``matvec(B[:, j])``."""
        if self.dense is not None:
            return dense_sweep_matmat(self.dense.data, block)
        if self.csr is not None:
            return csr_sweep_matmat(self.csr[0].data, self.plan, block)
        return ell_sweep_matmat(self.ell[0].data, self.plan, block)

    def free(self) -> None:
        """Release the device buffers backing this matrix."""
        if self.dense is not None:
            self.dense.free()
        elif self.csr is not None:
            for buffer in self.csr:
                buffer.free()
        else:
            for buffer in self.ell:
                buffer.free()


# Launch-domain contract of the recursion kernel (rules RA016–RA020).
# The four modes close the `resume_state is None` / `state_out is None`
# branches; cold modes pin start_moment = 0 because the host launches
# them that way (the cold prologue fills moment columns 0 and 1 and
# its loop starts at order 2, so column `order - start_moment` only
# lines up at start_moment 0).
_KPM_RECURSION_CONTRACT = KernelContract(
    symbols={
        "D": (1, None),
        "num_vectors": (1, None),
        "num_moments": (1, None),
        "start_moment": (0, "num_moments - 1"),
        "nnz": (0, None),
        "ell_width": (0, None),
    },
    arrays={
        "mu_tilde": ArraySpec(
            extent=("num_vectors", "num_moments - start_moment"),
            role="out",
            coverage=0,
        ),
        "resume_state": ArraySpec(extent=("num_vectors", 2, "D"), role="in"),
        "state_out": ArraySpec(
            extent=("num_vectors", 2, "D"), role="out", coverage=0
        ),
    },
    matrices={
        "matrix": MatrixSpec("D", "D", nnz="nnz", ell_width="ell_width")
    },
    partitions={"plan": "num_vectors"},
    modes=(
        LaunchMode(
            "cold",
            bounds={"start_moment": (0, 0)},
            absent=("resume_state", "state_out"),
        ),
        LaunchMode(
            "cold-capture",
            bounds={"start_moment": (0, 0), "num_moments": (2, None)},
            absent=("resume_state",),
        ),
        LaunchMode(
            "resume",
            bounds={
                "start_moment": (2, "num_moments - 1"),
                "num_moments": (3, None),
            },
            absent=("state_out",),
        ),
        LaunchMode(
            "resume-capture",
            bounds={
                "start_moment": (2, "num_moments - 1"),
                "num_moments": (3, None),
            },
        ),
    ),
)


@kernel("kpm_recursion", pow2_block=True, contract=_KPM_RECURSION_CONTRACT)
def kpm_recursion_kernel(  # repro: noqa[RA005] -- block program; host pipeline validates the launch
    ctx,
    matrix: DeviceMatrix,
    mu_tilde,
    plan,
    per_vector_stats,
    footprint_bytes,
    num_moments: int,
    vectors_per_realization: int,
    vector_kind: str,
    seed,
    first_vector: int = 0,
    start_moment: int = 0,
    resume_state=None,
    state_out=None,
):
    """Part (a): full recursion for this block's vectors.

    The block's ``B`` vectors advance in lockstep: ``r0`` holds their
    start vectors ``|r>`` as ``(B, D)`` rows, and ``prev``/``cur`` hold
    ``r_{n-2}``, ``r_{n-1}`` as ``(D, B)`` panels.  Each order does five
    things: one :meth:`DeviceMatrix.matmat` sweep of the panel, the
    in-place update ``nxt *= 2; nxt -= prev`` (which rounds as
    ``2 * y - prev`` does), one copy of the panel into a ``(B, D)`` rows
    buffer, one stacked ``np.matmul`` of ``r0`` with those rows into a
    dots buffer, and a store of the dots into a host-local ``(B, width)``
    moment array.  The rows, dots and moment buffers are allocated once
    per block, and the block writes its moment rows to ``mu~`` once,
    after the loop.  Each stacked product is the contiguous BLAS dot
    that a 1-D ``r0 @ y`` calls, so every vector's moment keeps the bits
    of the single-vector recursion; ``np.einsum`` or a dot over the
    strided panel columns can round differently.  All of these are the
    emulator's host scratch, like every matvec output; the cost model
    still prices a block that walks its vectors through the paper's
    4-vector workspace and stores each moment to global memory
    (Sec. III-B2, Fig. 4a).

    ``first_vector`` offsets the global vector numbering so a device
    working on a partition (multi-GPU, :mod:`repro.cluster`) consumes
    exactly the same random streams as a single device would.

    A prologue seeds ``prev``/``cur``, then one step loop runs the
    orders ``first..num_moments-1`` into moment column
    ``order - start_moment``.  The cold prologue computes ``mu~_0`` and
    ``mu~_1`` from ``(r_0, H r_0)`` and starts the loop at order 2.
    Resume mode (``start_moment >= 2`` with ``resume_state``) loads the
    uploaded per-vector state ``(r_{start-2}, r_{start-1})`` instead,
    regenerates ``|r>`` from its Philox stream and starts the loop at
    ``start_moment``; since both modes run the same step, the emitted
    moments are bit-identical to a cold run at the higher order.
    ``state_out`` (requires ``num_moments >= 2``) captures the final
    ``(r_{N-2}, r_{N-1})`` pair per vector for a later resume.
    """
    block_vectors = plan.vectors_of(ctx.linear_block_id)
    if len(block_vectors) == 0:  # pragma: no cover - plan never makes these
        return
    dim = matrix.shape[0]
    # Shared memory: the block's dot-product reduction tree.
    ctx.shared_alloc(ctx.threads_per_block * 8)
    # Charged up front: a cold launch at N = 1 computes only mu~_0.
    ctx.charge(
        flops=per_vector_stats.flops * len(block_vectors),
        gmem_read=per_vector_stats.gmem_read_bytes * len(block_vectors),
        gmem_write=per_vector_stats.gmem_write_bytes * len(block_vectors),
        footprint=footprint_bytes,
        coalescing=per_vector_stats.coalescing,
        thread_efficiency=per_vector_stats.thread_efficiency,
        precision=per_vector_stats.precision,
    )

    starts = []
    for v in block_vectors:
        realization, vector_index = divmod(first_vector + v, vectors_per_realization)
        starts.append(
            random_vector(
                dim,
                vector_kind,
                seed=seed,
                realization=realization,
                vector_index=vector_index,
            )
        )
    r0 = np.array(starts, dtype=mu_tilde.dtype)
    # Host scratch, allocated once per block: the panel's rows, one dot
    # per vector, and the block's moment rows.
    rows = np.empty_like(r0)
    dots = np.empty((len(block_vectors), 1, 1), dtype=r0.dtype)
    moments = np.empty((len(block_vectors), num_moments - start_moment), dtype=r0.dtype)
    lhs, rhs, dot = r0[:, None, :], rows[:, :, None], dots[:, 0, 0]
    if resume_state is None:
        np.matmul(lhs, r0[:, :, None], out=dots)
        moments[:, 0] = dot
        prev = cur = r0.T  # r_0; r_1 follows when N > 1
        if num_moments > 1:
            cur = matrix.matmat(prev)  # r_1
            rows[...] = cur.T
            np.matmul(lhs, rhs, out=dots)
            moments[:, 1] = dot
        first = 2
    else:
        # The checkpointed pair (r_{start-2}, r_{start-1}).
        prev = resume_state.data[block_vectors, 0].T
        cur = resume_state.data[block_vectors, 1].T
        first = start_moment
    for order in range(first, num_moments):
        nxt = matrix.matmat(cur)
        nxt *= 2.0
        nxt -= prev
        rows[...] = nxt.T
        np.matmul(lhs, rhs, out=dots)
        moments[:, order - start_moment] = dot
        prev, cur = cur, nxt
    mu_tilde.data[block_vectors] = moments
    if state_out is not None:
        state_out.data[block_vectors, 0] = prev.T  # r_{N-2}
        state_out.data[block_vectors, 1] = cur.T   # r_{N-1}


_REDUCE_MOMENTS_CONTRACT = KernelContract(
    symbols={"num_orders": (1, None), "num_vectors": (1, None)},
    arrays={
        "mu_tilde": ArraySpec(extent=("num_vectors", "num_orders"), role="in"),
        "mu_out": ArraySpec(extent=("num_orders",), role="out", coverage=0),
    },
)


@kernel("reduce_moments", pow2_block=True, contract=_REDUCE_MOMENTS_CONTRACT)
def reduce_moments_kernel(  # repro: noqa[RA005] -- block program; host pipeline validates the launch
    ctx, mu_tilde, mu_out, footprint_bytes, precision="double"
):
    """Part (b): ``mu_n = mean_v mu~_{v,n}`` — one thread per order."""
    orders = ctx.thread_range(mu_out.shape[0])
    if orders.size == 0:
        return
    total_vectors = mu_tilde.shape[0]
    item = mu_tilde.data.dtype.itemsize
    mu_out.data[orders] = mu_tilde.data[:, orders].mean(axis=0)
    ctx.charge(
        flops=float(total_vectors * orders.size),
        gmem_read=float(total_vectors * orders.size * item),
        gmem_write=float(orders.size * item),
        footprint=footprint_bytes,
        coalescing=1.0,
        precision=precision,
    )
