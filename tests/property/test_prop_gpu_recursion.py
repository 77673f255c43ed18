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
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpukpm import GpuKPM
from repro.kpm import KPMConfig, rescale_operator
from repro.kpm.moments import moments_single_vector
from repro.kpm.random_vectors import random_vector
from repro.lattice import cubic, tight_binding_hamiltonian
from repro.sparse import CSRMatrix

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
        assert state.data.tobytes() == cold_state.data.tobytes()


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
