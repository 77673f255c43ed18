"""Property tests of the device recursion, per vector and per launch.

``kpm_recursion`` seeds its workspace with a cold or a resume prologue
and then runs one Chebyshev step loop; ``GpuKPM.run_partition`` issues
every launch from one loop over chunks of vectors.  Three properties pin
that path on the paper's cube and on random symmetric operators with
ragged rows, in every SpMV format:

1. in double precision each row of the device table is byte-equal to
   the host recursion ``moments_single_vector`` on the same Philox
   stream, at any ``first_vector`` offset and chunking;
2. a captured run followed by one to three extensions is byte-equal to
   a cold capture at the final order, in both precisions;
3. checkpoint chunks tile the partition in order and reproduce the
   single-launch table.

A block advances all of its vectors together, one ``DeviceMatrix.matmat``
sweep of their ``(D, B)`` panel per order.  Three more properties pin
that lockstep panel:

4. rows of wide, ragged blocks (up to 40 vectors, ``block_size`` up to
   256), cold and resumed, are byte-equal to ``moments_single_vector``;
5. single-precision rows are byte-equal to a float32 per-vector
   recursion (``2.0 * y - prev`` and ``r0 @ y``, ``y`` from the
   canonical CSR sweep on float32 storage);
6. column k of ``DeviceMatrix.matmat`` is byte-equal to
   ``DeviceMatrix.matvec`` of column k, for dense, CSR and ELL storage
   in both precisions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu import Device
from repro.gpu.spec import TESLA_C2050
from repro.gpukpm import GpuKPM, spmv_model_for
from repro.kpm import KPMConfig, rescale_operator
from repro.kpm.moments import moments_single_vector
from repro.kpm.random_vectors import random_vector
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.sparse import CSRMatrix
from repro.sparse.sweep import build_sweep_plan, csr_sweep_matvec

FORMATS = ("dense", "csr", "csr-vector", "ell")

CUBE, _ = rescale_operator(tight_binding_hamiltonian(cubic(4), format="csr"))


@st.composite
def operators(draw):
    """The 4^3 cube, or a random symmetric operator with ragged rows."""
    if draw(st.booleans()):
        return CUBE
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Each row keeps its own share of the upper triangle: ragged rows,
    # some of them holding only the diagonal.
    keep = np.triu(rng.random((dim, dim)) < rng.random((dim, 1)), 1)
    upper = np.where(keep, rng.standard_normal((dim, dim)), 0.0)
    dense = upper + upper.T + np.diag(rng.standard_normal(dim))
    scaled, _ = rescale_operator(CSRMatrix.from_dense(dense))
    return scaled


def configs(precision=st.sampled_from(("double", "single")), min_moments=1):
    return st.builds(
        KPMConfig,
        num_moments=st.integers(min_moments, 20),
        num_random_vectors=st.integers(1, 4),
        num_realizations=st.integers(1, 3),
        seed=st.integers(0, 1000),
        block_size=st.sampled_from((1, 2, 4, 32)),
        vector_kind=st.sampled_from(("rademacher", "gaussian")),
        precision=precision,
    )


formats = st.sampled_from(FORMATS)


def start_vector(dim, config, index):
    """The Philox start vector of global vector ``index``."""
    realization, vector_index = divmod(index, config.num_random_vectors)
    return random_vector(
        dim,
        config.vector_kind,
        seed=config.seed,
        realization=realization,
        vector_index=vector_index,
    )


def float32_moments(op, start, num_moments):
    """The per-vector float32 recursion: ``2.0 * y - prev`` and ``r0 @ y``."""
    plan = build_sweep_plan(op.indptr, op.indices, op.shape)
    data = op.data.astype(np.float32)
    r0 = start.astype(np.float32)
    ys = [r0, csr_sweep_matvec(data, plan, r0)]
    for _ in range(2, num_moments):
        ys.append(2.0 * csr_sweep_matvec(data, plan, ys[-1]) - ys[-2])
    return np.array([r0 @ y for y in ys[:num_moments]], dtype=np.float32)


def upload(device, op, storage, dtype):
    """``op`` uploaded to ``device`` in dense, CSR or ELL storage."""
    precision = "double" if dtype == np.float64 else "single"
    spmv = spmv_model_for(op, storage, precision=precision)
    return GpuKPM()._upload_matrix(device, op, spmv, op.shape[0], dtype)


class TestRowsMatchHostRecursion:
    @given(
        op=operators(),
        fmt=formats,
        config=configs(precision=st.just("double")),
        first=st.integers(0, 6),
        count=st.integers(1, 6),
        checkpoint_every=st.none() | st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_row_is_the_single_vector_recursion(
        self, op, fmt, config, first, count, checkpoint_every
    ):
        table, _, _ = GpuKPM(spmv_format=fmt).run_partition(
            op,
            config,
            first_vector=first,
            num_vectors=count,
            checkpoint_every=checkpoint_every,
        )
        dim = op.shape[0]
        for offset, row in enumerate(table):
            realization, index = divmod(first + offset, config.num_random_vectors)
            start = random_vector(
                dim,
                config.vector_kind,
                seed=config.seed,
                realization=realization,
                vector_index=index,
            )
            expected = moments_single_vector(op, start, config.num_moments)
            assert row.tobytes() == expected.tobytes()


class TestExtensionChains:
    @given(
        op=operators(),
        fmt=formats,
        config=configs(min_moments=2),
        steps=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_capture_then_extensions_equal_cold_capture(self, op, fmt, config, steps):
        engine = GpuKPM(spmv_format=fmt)
        data, _, state = engine.compute_moments_resumable(op, config)
        target = config
        for step in steps:
            target = target.with_updates(num_moments=target.num_moments + step)
            data, _, state = engine.extend_moments(op, target, data, state)
        cold, _, cold_state = engine.compute_moments_resumable(op, target)
        assert data.mu.tobytes() == cold.mu.tobytes()
        assert data.per_realization.tobytes() == cold.per_realization.tobytes()
        assert state.num_moments == cold_state.num_moments
        assert state.pair.tobytes() == cold_state.pair.tobytes()


class TestCheckpointChunks:
    @given(
        op=operators(),
        fmt=formats,
        config=configs(),
        first=st.integers(0, 6),
        count=st.integers(1, 9),
        checkpoint_every=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunks_tile_the_single_launch_table(
        self, op, fmt, config, first, count, checkpoint_every
    ):
        engine = GpuKPM(spmv_format=fmt)
        single, _, _ = engine.run_partition(
            op, config, first_vector=first, num_vectors=count
        )
        chunks = []
        table, _, _ = engine.run_partition(
            op,
            config,
            first_vector=first,
            num_vectors=count,
            checkpoint_every=checkpoint_every,
            on_chunk=chunks.append,
        )
        assert table.tobytes() == single.tobytes()
        starts = list(range(first, first + count, checkpoint_every))
        assert [chunk.first_vector for chunk in chunks] == starts
        assert [chunk.num_vectors for chunk in chunks] == [
            min(checkpoint_every, first + count - start) for start in starts
        ]
        rows = np.concatenate([chunk.rows for chunk in chunks])
        assert rows.tobytes() == single.tobytes()


class TestLockstepPanel:
    @given(
        op=operators(),
        fmt=formats,
        vectors=st.integers(1, 10),
        realizations=st.integers(1, 4),
        block_size=st.sampled_from((1, 4, 16, 256)),
        num_moments=st.integers(3, 16),
        resume_at=st.none() | st.integers(2, 15),
        first=st.integers(0, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_wide_ragged_block_rows_are_the_single_vector_recursion(
        self, op, fmt, vectors, realizations, block_size, num_moments,
        resume_at, first, seed,
    ):
        config = KPMConfig(
            num_moments=num_moments,
            num_random_vectors=vectors,
            num_realizations=realizations,
            seed=seed,
            block_size=block_size,
        )
        count = config.total_vectors
        engine = GpuKPM(spmv_format=fmt)
        start = 0
        resume = {}
        if resume_at is not None:
            start = min(resume_at, num_moments - 1)
            captured = []
            engine.run_partition(
                op,
                config.with_updates(num_moments=start),
                first_vector=first,
                num_vectors=count,
                state_sink=captured.append,
            )
            resume = {"start_moment": start, "resume_state": captured[0]}
        table, _, _ = engine.run_partition(
            op, config, first_vector=first, num_vectors=count, **resume
        )
        assert table.shape == (count, num_moments - start)
        for offset, row in enumerate(table):
            vector = start_vector(op.shape[0], config, first + offset)
            expected = moments_single_vector(op, vector, num_moments)[start:]
            assert row.tobytes() == expected.tobytes()

    @given(
        op=operators(),
        fmt=formats,
        config=configs(precision=st.just("single")),
        first=st.integers(0, 6),
        count=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_precision_rows_are_the_float32_step(
        self, op, fmt, config, first, count
    ):
        table, _, _ = GpuKPM(spmv_format=fmt).run_partition(
            op, config, first_vector=first, num_vectors=count
        )
        for offset, row in enumerate(table):
            vector = start_vector(op.shape[0], config, first + offset)
            expected = float32_moments(op, vector, config.num_moments)
            assert row.tobytes() == expected.astype(np.float64).tobytes()

    @given(
        op=operators(),
        storage=st.sampled_from(("dense", "csr", "ell")),
        dtype=st.sampled_from((np.float64, np.float32)),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmat_columns_are_matvecs(self, op, storage, dtype, width, seed):
        device = Device(TESLA_C2050)
        matrix = upload(device, op, storage, dtype)
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((op.shape[0], width)).astype(dtype)
        panel = matrix.matmat(block)
        assert panel.shape == block.shape
        for k in range(width):
            column = matrix.matvec(np.ascontiguousarray(block[:, k]))
            assert panel[:, k].tobytes() == column.tobytes()
        matrix.free()
