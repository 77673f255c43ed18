"""Property-based tests for the SpMV formats and the autotuner.

The tuner's whole premise is that storage format is a pure performance
knob: every block program executes the canonical contraction order of
``repro.sparse.sweep``, so dense, scalar CSR, vector CSR, and ELL must
produce *bit-identical* moments on both engines for arbitrary sparsity
patterns — and tuning decisions plus their persisted cache must be fully
deterministic.  Hypothesis drives all of it across random symmetric
operators.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpukpm import GpuKPM
from repro.kpm import KPMConfig, rescale_operator, stochastic_moments
from repro.sparse import CSRMatrix, DenseOperator
from repro.tune import Autotuner, TuningCache


@st.composite
def symmetric_csr(draw, max_dim=10):
    """Random symmetric CSR matrices with a guaranteed nonzero diagonal."""
    dim = draw(st.integers(2, max_dim))
    density = draw(st.floats(0.1, 0.6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    lower = np.where(
        rng.random((dim, dim)) < density, rng.standard_normal((dim, dim)), 0.0
    )
    dense = np.tril(lower, k=-1)
    # One guaranteed bond keeps the spectrum away from a pure multiple
    # of the identity (which has no well-defined KPM rescaling).
    dense[1, 0] = 1.0
    dense = dense + dense.T + np.eye(dim)
    return CSRMatrix.from_dense(dense)


configs = st.builds(
    KPMConfig,
    num_moments=st.integers(1, 12),
    num_random_vectors=st.integers(1, 3),
    seed=st.integers(0, 1000),
    precision=st.sampled_from(("double", "single")),
)


#: Input storages: every conversion into every executed format is exact.
STORAGES = {
    "csr": lambda op: op,
    "ell": lambda op: op.to_ell(),
    "dense-operator": lambda op: DenseOperator(op.to_dense()),
    "ndarray": lambda op: op.to_dense(),
}


class TestFormatBitIdentity:
    @given(
        csr=symmetric_csr(), config=configs, storage=st.sampled_from(sorted(STORAGES))
    )
    @settings(max_examples=20, deadline=None)
    def test_gpu_formats_identical(self, csr, config, storage):
        scaled, _ = rescale_operator(csr)
        scaled = STORAGES[storage](scaled)
        tables = []
        for fmt, width in (
            ("dense", None),
            ("csr", None),
            ("csr-vector", 4),
            ("ell", None),
        ):
            kpm = GpuKPM(spmv_format=fmt, vector_width=width)
            moments, _ = kpm.compute_moments(scaled, config)
            tables.append(moments.mu)
        for table in tables[1:]:
            np.testing.assert_array_equal(table, tables[0])

    @given(csr=symmetric_csr(), config=configs)
    @settings(max_examples=20, deadline=None)
    def test_host_storages_identical(self, csr, config):
        scaled, _ = rescale_operator(csr)
        reference = stochastic_moments(scaled, config).mu
        as_ell = stochastic_moments(scaled.to_ell(), config).mu
        as_dense = stochastic_moments(
            DenseOperator(scaled.to_dense()), config
        ).mu
        np.testing.assert_array_equal(as_ell, reference)
        np.testing.assert_array_equal(as_dense, reference)

    @given(csr=symmetric_csr(), config=configs)
    @settings(max_examples=10, deadline=None)
    def test_tuned_run_matches_dense_run(self, csr, config):
        scaled, _ = rescale_operator(csr)
        dense_mu, _ = GpuKPM(spmv_format="dense").compute_moments(scaled, config)
        tuned_mu, _ = GpuKPM(tuner=Autotuner()).compute_moments(scaled, config)
        np.testing.assert_array_equal(tuned_mu.mu, dense_mu.mu)


class TestAutotunerDeterminism:
    @given(csr=symmetric_csr(), config=configs)
    @settings(max_examples=15, deadline=None)
    def test_independent_tuners_agree(self, csr, config):
        first = Autotuner().choose(csr, config)
        second = Autotuner().choose(csr, config)
        assert first == second

    @given(csr=symmetric_csr(), config=configs)
    @settings(max_examples=10, deadline=None)
    def test_cache_serialization_is_byte_stable(self, csr, config):
        a, b = Autotuner(), Autotuner()
        a.choose(csr, config)
        b.choose(csr, config)
        assert a.cache.to_json() == b.cache.to_json()
        restored = TuningCache.from_dict(json.loads(a.cache.to_json()))
        assert restored.to_json() == a.cache.to_json()
        assert restored.fingerprint() == a.cache.fingerprint()

    @given(csr=symmetric_csr(), config=configs)
    @settings(max_examples=10, deadline=None)
    def test_sweep_winner_is_choose_winner(self, csr, config):
        tuner = Autotuner()
        assert tuner.choose(csr, config) == tuner.sweep(csr, config)[0]
