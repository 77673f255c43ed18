"""One recursion state resumes every path, bit for bit, on every engine.

:class:`repro.kpm.moments.RecursionState` is the one state of the host
recursions, ``SpectralDensity``, ``gpu-sim`` and the serve cache.  On
random symmetric operators scaled into ``[-1, 1]`` (CSR, ELL, dense):

1. a cold run at ``M`` equals a cold run at ``N`` followed by an
   extension chain up to ``M``, byte for byte, and leaves the state of
   the cold run: the host single-start recursion (1-D and block, plain
   and doubled), ``NumpyEngine``, ``SpectralDensity.add_moments`` after
   mixed ``add_vectors``, and ``gpu-sim`` in single and double precision;
2. a state captured on numpy resumes on gpu-sim, and the other way
   round, equal to either engine's cold run (double precision);
3. a doubled state into a plain run and the reverse, a float32 pair
   into a float64 run and the reverse, and a state of another dimension
   raise :class:`~repro.errors.ValidationError` or
   :class:`~repro.errors.ShapeError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError, ValidationError
from repro.gpukpm import GpuKPM
from repro.kpm import KPMConfig
from repro.kpm.engines import NumpyEngine
from repro.kpm.incremental import SpectralDensity
from repro.kpm.moments import extend_recursion, moments_resumable
from repro.sparse import CSRMatrix, DenseOperator


@st.composite
def scaled_operators(draw, min_dim=2):
    """A random symmetric operator with its spectrum inside ``[-1, 1]``."""
    dim = draw(st.integers(min_dim, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.triu(rng.random((dim, dim)) < rng.random((dim, 1)), 1)
    upper = np.where(keep, rng.standard_normal((dim, dim)), 0.0)
    dense = upper + upper.T + np.diag(rng.standard_normal(dim))
    # The Gerschgorin bound caps the spectral radius.
    dense /= 1.01 * max(float(np.abs(dense).sum(axis=1).max()), 1e-300)
    storage = draw(st.sampled_from(("csr", "ell", "dense")))
    if storage == "dense":
        return DenseOperator(dense)
    csr = CSRMatrix.from_dense(dense)
    return csr.to_ell() if storage == "ell" else csr


configs = st.builds(
    KPMConfig,
    num_moments=st.integers(1, 16),
    num_random_vectors=st.integers(1, 4),
    num_realizations=st.integers(1, 3),
    seed=st.integers(0, 1000),
    block_size=st.sampled_from((1, 2, 32)),
    vector_kind=st.sampled_from(("rademacher", "gaussian")),
)

#: Order increments of an extension chain.
steps = st.lists(st.integers(1, 9), min_size=1, max_size=3)


def same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_data(a, b) -> bool:
    return same(a.mu, b.mu) and same(a.per_realization, b.per_realization)


def same_state(a, b) -> bool:
    return (
        a.run_key == b.run_key
        and a.num_moments == b.num_moments
        and same(a.pair, b.pair)
        and same(a.mu1, b.mu1)
        and same(a.rows, b.rows)
    )


def chain(engine, op, config, increments):
    """Capture at ``config`` on ``engine``, then extend by ``increments``."""
    data, _, state = engine.compute_moments_resumable(op, config)
    for extra in increments:
        config = config.with_updates(num_moments=config.num_moments + extra)
        data, _, state = engine.extend_moments(op, config, data, state)
    return data, state, config


class TestExtensionChainsEqualColdRuns:
    @given(
        op=scaled_operators(),
        width=st.sampled_from((None, 1, 3)),
        doubling=st.booleans(),
        first=st.integers(1, 10),
        increments=steps,
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_host_single_start(self, op, width, doubling, first, increments, seed):
        dim = op.shape[0]
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(dim if width is None else (dim, width))
        moments, state = moments_resumable(op, start, first, use_doubling=doubling)
        parts, order = [moments], first
        for extra in increments:
            order += extra
            segment, state = extend_recursion(op, state, order)
            parts.append(segment)
        cold, cold_state = moments_resumable(op, start, order, use_doubling=doubling)
        assert same(np.concatenate(parts), cold)
        assert same_state(state, cold_state)

    @given(op=scaled_operators(), config=configs, doubling=st.booleans(), increments=steps)
    @settings(max_examples=40, deadline=None)
    def test_numpy_engine(self, op, config, doubling, increments):
        engine = NumpyEngine()
        config = config.with_updates(use_doubling=doubling)
        data, state, target = chain(engine, op, config, increments)
        cold, _, cold_state = engine.compute_moments_resumable(op, target)
        assert same_data(data, cold)
        assert same_state(state, cold_state)

    @given(
        op=scaled_operators(),
        first=st.integers(1, 10),
        actions=st.lists(
            st.tuples(st.sampled_from(("vectors", "moments")), st.integers(1, 4)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_spectral_density_add_moments(self, op, first, actions):
        density = SpectralDensity(op, num_moments=first, seed=4)
        groups = []
        for action, count in actions:
            if action == "vectors":
                density.add_vectors(count)
                groups.append(count)
            else:
                density.add_moments(count)
        cold = SpectralDensity(op, num_moments=density.num_moments, seed=4)
        for count in groups:
            cold.add_vectors(count)
        assert same(density._table, cold._table)
        assert density.matvecs_performed == cold.matvecs_performed
        for state, cold_state in zip(density._states, cold._states, strict=True):
            assert same_state(state, cold_state)

    @given(
        op=scaled_operators(),
        config=configs.filter(lambda c: c.num_moments >= 2),
        precision=st.sampled_from(("double", "single")),
        increments=steps,
    )
    @settings(max_examples=30, deadline=None)
    def test_gpu_sim(self, op, config, precision, increments):
        engine = GpuKPM()
        config = config.with_updates(precision=precision)
        data, state, target = chain(engine, op, config, increments)
        cold, _, cold_state = engine.compute_moments_resumable(op, target)
        assert same_data(data, cold)
        assert same_state(state, cold_state)


class TestStatesCrossEngines:
    @given(op=scaled_operators(), config=configs, increments=steps)
    @settings(max_examples=40, deadline=None)
    def test_numpy_and_gpu_sim_resume_each_other(self, op, config, increments):
        numpy, gpu = NumpyEngine(), GpuKPM()
        target = config.with_updates(num_moments=config.num_moments + sum(increments))
        cold_numpy, _, cold_numpy_state = numpy.compute_moments_resumable(op, target)
        cold_gpu, _, cold_gpu_state = gpu.compute_moments_resumable(op, target)
        assert same_data(cold_numpy, cold_gpu)
        assert same_state(cold_numpy_state, cold_gpu_state)
        for capture, resume in ((numpy, gpu), (gpu, numpy)):
            data, _, state = capture.compute_moments_resumable(op, config)
            if state is None:  # gpu-sim keeps no state below order 2
                continue
            for extra in increments:
                config_now = config.with_updates(
                    num_moments=state.num_moments + extra
                )
                data, _, state = resume.extend_moments(op, config_now, data, state)
            assert same_data(data, cold_numpy), (capture.name, resume.name)
            assert same_state(state, cold_numpy_state), (capture.name, resume.name)


class TestMismatchedStatesAreRefused:
    @given(op=scaled_operators(), config=configs.filter(lambda c: c.num_moments >= 2))
    @settings(max_examples=15, deadline=None)
    def test_recursion_kind(self, op, config):
        doubled = config.with_updates(use_doubling=True)
        longer = doubled.with_updates(num_moments=doubled.num_moments + 3)
        # The host runs the doubled recursion, gpu-sim the plain one.
        data, _, state = NumpyEngine().compute_moments_resumable(op, doubled)
        with pytest.raises(ValidationError, match="recursion"):
            GpuKPM().extend_moments(op, longer, data, state)
        data, _, state = GpuKPM().compute_moments_resumable(op, doubled)
        with pytest.raises(ValidationError, match="recursion"):
            NumpyEngine().extend_moments(op, longer, data, state)

    @given(op=scaled_operators(), config=configs.filter(lambda c: c.num_moments >= 2))
    @settings(max_examples=15, deadline=None)
    def test_pair_dtype(self, op, config):
        single = config.with_updates(precision="single")
        longer = single.with_updates(num_moments=single.num_moments + 3)
        # gpu-sim keeps a float32 pair, the host a float64 one.
        data, _, state = GpuKPM().compute_moments_resumable(op, single)
        assert state.pair.dtype == np.float32
        with pytest.raises(ValidationError, match="dtype"):
            NumpyEngine().extend_moments(op, longer, data, state)
        data, _, state = NumpyEngine().compute_moments_resumable(op, single)
        assert state.pair.dtype == np.float64
        with pytest.raises(ValidationError, match="dtype"):
            GpuKPM().extend_moments(op, longer, data, state)

    @given(op=scaled_operators(), other=scaled_operators(), config=configs)
    @settings(max_examples=15, deadline=None)
    def test_dimension(self, op, other, config):
        if other.shape == op.shape:
            return
        longer = config.with_updates(num_moments=config.num_moments + 3)
        for capture in (NumpyEngine(), GpuKPM()):
            data, _, state = capture.compute_moments_resumable(op, config)
            if state is None:  # gpu-sim keeps no state below order 2
                continue
            for resume in (NumpyEngine(), GpuKPM()):
                with pytest.raises(ShapeError):
                    resume.extend_moments(other, longer, data, state)
        start = np.ones(op.shape[0])
        _, state = moments_resumable(op, start, config.num_moments)
        with pytest.raises(ShapeError):
            extend_recursion(other, state, config.num_moments + 3)
