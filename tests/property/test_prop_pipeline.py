"""Property-based tests of the pipeline contracts.

The harness's validity rests on two invariants that must hold for *every*
configuration, not just the ones unit tests pick:

1. the analytic estimators equal executed modeled times exactly;
2. work partitioning (multi-GPU, incremental refinement) never changes
   the numbers.

Hypothesis drives both across the configuration space at small sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import MultiGpuKPM, estimate_multigpu_seconds
from repro.gpu import TESLA_C2050
from repro.gpukpm import GpuKPM, estimate_gpu_kpm_seconds, spmv_model_for
from repro.kpm import KPMConfig, SpectralDensity, rescale_operator, stochastic_moments
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture(scope="module")
def system():
    csr = tight_binding_hamiltonian(cubic(3), format="csr")
    scaled, _ = rescale_operator(csr)
    return csr, scaled


configs = st.builds(
    KPMConfig,
    num_moments=st.integers(1, 24),
    num_random_vectors=st.integers(1, 8),
    num_realizations=st.integers(1, 3),
    seed=st.integers(0, 1000),
    block_size=st.sampled_from((32, 64, 128, 1024)),
    precision=st.sampled_from(("double", "single")),
    vector_kind=st.sampled_from(("rademacher", "gaussian")),
)


class TestEstimatorContract:
    @given(config=configs)
    @settings(max_examples=25, deadline=None)
    def test_estimate_equals_run(self, system, config):
        csr, scaled = system
        runner = GpuKPM()
        _, report = runner.compute_moments(scaled, config)
        spmv = spmv_model_for(scaled, "csr", precision=config.precision)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050, csr.shape[0], config, spmv=spmv
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    @given(config=configs, devices=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_multigpu_estimate_equals_run(self, system, config, devices):
        csr, scaled = system
        if devices > config.total_vectors:
            return
        _, report = MultiGpuKPM(devices).compute_moments(scaled, config)
        spmv = spmv_model_for(scaled, "csr", precision=config.precision)
        estimate = estimate_multigpu_seconds(
            TESLA_C2050, csr.shape[0], config, devices, spmv=spmv
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)


class TestPartitionInvariance:
    @given(config=configs, devices=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_multigpu_moments_independent_of_device_count(
        self, system, config, devices
    ):
        _, scaled = system
        if devices > config.total_vectors:
            return
        reference = stochastic_moments(scaled, config)
        partitioned, _ = MultiGpuKPM(devices).compute_moments(scaled, config)
        np.testing.assert_allclose(partitioned.mu, reference.mu, atol=1e-5)

    @given(
        chunks=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        seed=st.integers(0, 100),
        num_moments=st.integers(2, 16),
    )
    @settings(max_examples=20, deadline=None)
    def test_incremental_chunking_invariant(self, system, chunks, seed, num_moments):
        csr, _ = system
        total = sum(chunks)
        one_shot = SpectralDensity(csr, num_moments=num_moments, seed=seed)
        one_shot.add_vectors(total)
        stepwise = SpectralDensity(csr, num_moments=num_moments, seed=seed)
        for chunk in chunks:
            stepwise.add_vectors(chunk)
        # Same Philox streams; only the BLAS reduction order differs
        # between batchings, so agreement is to the ulp, not bit-exact.
        np.testing.assert_allclose(
            one_shot.moments().mu, stepwise.moments().mu, atol=1e-13
        )
