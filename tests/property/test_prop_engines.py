"""Every engine returns the same moments, bit for bit, in double precision.

numpy, cpu-model, gpu-sim and the multi-GPU cluster run one recursion
step (:func:`repro.kpm.moments.chebyshev_rows`) and reduce their
``(R*S, N)`` tables with one mean (:func:`repro.kpm.moments.vector_mean`).
On random symmetric operators scaled into ``[-1, 1]`` (CSR, ELL, dense):

1. the per-vector rows of the host trace equal gpu-sim's moment table;
2. ``mu`` and ``per_realization`` are equal on numpy, cpu-model, gpu-sim
   and the cluster, with ``checkpoint_every`` unset, 1 and 2, and under
   a sampled fault schedule;
3. an extension from a checkpoint equals the cold run at the higher
   order on numpy and gpu-sim, and the two engines' extensions agree.

An operator outside ``[-1, 1]`` raises the same
:class:`~repro.errors.SpectrumError` on every engine, cold and resumed,
and no NumPy ``RuntimeWarning`` escapes first.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import FaultSchedule, MultiGpuKPM, RetryPolicy
from repro.errors import SpectrumError
from repro.gpukpm import GpuKPM
from repro.kpm import KPMConfig, get_engine
from repro.kpm.moments import stochastic_moments
from repro.lattice import paper_cubic_hamiltonian
from repro.sparse import CSRMatrix, DenseOperator


@st.composite
def scaled_operators(draw):
    """A random symmetric operator with its spectrum inside ``[-1, 1]``."""
    dim = draw(st.integers(2, 12))
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
    num_moments=st.integers(1, 24),
    num_random_vectors=st.integers(1, 4),
    num_realizations=st.integers(1, 3),
    seed=st.integers(0, 1000),
    block_size=st.sampled_from((1, 2, 32)),
    vector_kind=st.sampled_from(("rademacher", "gaussian")),
)


def same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_data(a, b) -> bool:
    return same(a.mu, b.mu) and same(a.per_realization, b.per_realization)


class TestEnginesAgree:
    @given(op=scaled_operators(), config=configs, fault_seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_cold_rows_and_moments_are_bit_identical(self, op, config, fault_seed):
        reference, per_vector = stochastic_moments(op, config, keep_per_vector=True)
        table, _, _ = GpuKPM().run_partition(
            op, config, first_vector=0, num_vectors=config.total_vectors
        )
        assert same(
            per_vector.reshape(config.total_vectors, -1), table / op.shape[0]
        )
        runs = {
            name: get_engine(name).compute_moments(op, config)[0]
            for name in ("numpy", "cpu-model", "gpu-sim")
        }
        devices = min(2, config.total_vectors)
        for every in (None, 1, 2):
            runs[f"cluster-{every}"] = MultiGpuKPM(
                devices, checkpoint_every=every
            ).compute_moments(op, config)[0]
        schedule = FaultSchedule.sample(
            fault_seed, devices, crash_rate=0.3, straggler_rate=0.3, transfer_rate=0.3
        )
        runs["cluster-faults"] = MultiGpuKPM(
            devices,
            fault_schedule=schedule,
            policy=RetryPolicy(max_retries=8 * devices),
            checkpoint_every=1,
        ).compute_moments(op, config)[0]
        for name, data in runs.items():
            assert same_data(data, reference), name

    @given(
        op=scaled_operators(),
        config=configs.filter(lambda c: c.num_moments >= 2),
        extra=st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_extensions_are_bit_identical(self, op, config, extra):
        longer = config.with_updates(num_moments=config.num_moments + extra)
        cold = get_engine("numpy").compute_moments(op, longer)[0]
        for name in ("numpy", "gpu-sim"):
            engine = get_engine(name)
            data, _, state = engine.compute_moments_resumable(op, config)
            extended = engine.extend_moments(op, longer, data, state)[0]
            assert same_data(extended, cold), name


#: The 4^3 cube scaled by 0.25: its spectrum is [-1.5, 1.5].
OUTSIDE = paper_cubic_hamiltonian(4, format="csr").scale_shift(0.25, 0.0)
CONFIG = KPMConfig(num_moments=64, num_random_vectors=4, seed=1)
SHORT = CONFIG.with_updates(num_moments=8)


def _resumed(engine):
    data, _, state = engine.compute_moments_resumable(OUTSIDE, SHORT)
    return engine.extend_moments(OUTSIDE, CONFIG, data, state)


RUNS = {
    "numpy": lambda: get_engine("numpy").compute_moments(OUTSIDE, CONFIG),
    "cpu-model": lambda: get_engine("cpu-model").compute_moments(OUTSIDE, CONFIG),
    "gpu-sim": lambda: GpuKPM().compute_moments(OUTSIDE, CONFIG),
    "numpy-resumed": lambda: _resumed(get_engine("numpy")),
    "gpu-sim-resumed": lambda: _resumed(GpuKPM()),
    "cluster": lambda: MultiGpuKPM(4).compute_moments(OUTSIDE, CONFIG),
    "cluster-chunks": lambda: MultiGpuKPM(4, checkpoint_every=1).compute_moments(
        OUTSIDE, CONFIG
    ),
}


class TestDivergence:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_every_engine_names_the_first_diverged_order(self, run):
        with pytest.raises(SpectrumError, match="order 12 diverged"):
            RUNS[run]()
