"""Unit tests for the GPU conductivity pipeline."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError, ValidationError
from repro.gpu import TESLA_C2050, Device, tiny_test_device
from repro.gpukpm import (
    GpuConductivity,
    default_spmv_format,
    estimate_gpu_conductivity_seconds,
    per_vector_conductivity_stats,
    plan_conductivity_memory,
    spmv_model_for,
    uniform_csr_model,
)
from repro.kpm import (
    KPMConfig,
    lattice_current_operator,
    rescale_operator,
    stochastic_conductivity_moments,
)
from repro.lattice import chain, tight_binding_hamiltonian
from repro.sparse import DenseOperator

STORAGES = {
    "csr": lambda op: op,
    "ell": lambda op: op.to_ell(),
    "dense": lambda op: DenseOperator(op.to_dense()),
}


@pytest.fixture(scope="module")
def system():
    lattice = chain(48)
    hamiltonian = tight_binding_hamiltonian(lattice, format="csr")
    current = lattice_current_operator(lattice, 0)
    scaled, _ = rescale_operator(hamiltonian)
    return hamiltonian, current, scaled


@pytest.fixture
def config():
    return KPMConfig(
        num_moments=12, num_random_vectors=6, num_realizations=2, seed=4,
        block_size=32,
    )


class TestFunctionalParity:
    def test_matches_host_reference(self, system, config):
        _, current, scaled = system
        host = stochastic_conductivity_moments(scaled, current, config)
        gpu, _ = GpuConductivity().run(scaled, current, config)
        np.testing.assert_allclose(gpu, host, atol=1e-12)

    def test_dense_storage_matches(self, system, config):
        hamiltonian, current, _ = system
        from repro.sparse import DenseOperator

        scaled_dense, _ = rescale_operator(
            DenseOperator(hamiltonian.to_dense())
        )
        host = stochastic_conductivity_moments(scaled_dense, current, config)
        gpu, _ = GpuConductivity().run(scaled_dense, current, config)
        np.testing.assert_allclose(gpu, host, atol=1e-12)

    def test_single_precision_close(self, system, config):
        _, current, scaled = system
        dp, _ = GpuConductivity().run(scaled, current, config)
        sp, _ = GpuConductivity().run(
            scaled, current, config.with_updates(precision="single")
        )
        assert 0 < np.max(np.abs(dp - sp)) < 1e-3


class TestTiming:
    def test_estimator_matches_run(self, system, config):
        hamiltonian, current, scaled = system
        runner = GpuConductivity()
        _, report = runner.run(scaled, current, config)
        estimate = estimate_gpu_conductivity_seconds(
            TESLA_C2050,
            hamiltonian.shape[0],
            config,
            spmv=uniform_csr_model(scaled.shape[0], scaled.nnz_stored),
            current_spmv=uniform_csr_model(current.shape[0], current.nnz_stored),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_memory_plan_matches_pool(self, system, config):
        _, current, scaled = system
        runner = GpuConductivity()
        runner.run(scaled, current, config)
        plan = plan_conductivity_memory(
            TESLA_C2050,
            scaled.shape[0],
            config,
            spmv=uniform_csr_model(scaled.shape[0], scaled.nnz_stored),
            current_spmv=uniform_csr_model(current.shape[0], current.nnz_stored),
        )
        assert runner.last_device.memory.peak_bytes == sum(plan.values())

    def test_gram_contraction_shifts_roofline_toward_compute(self, system):
        # The N^2 D Gram term makes the arithmetic intensity grow with N
        # (unlike the DoS recursion, whose intensity is constant):
        # compute time must gain on memory time as N rises.
        _, current, scaled = system

        def ratio(num_moments):
            config = KPMConfig(
                num_moments=num_moments, num_random_vectors=2,
                num_realizations=1, block_size=32,
            )
            runner = GpuConductivity()
            runner.run(scaled, current, config)
            event = next(
                e
                for e in runner.last_device.profiler.events
                if getattr(e, "name", "") == "kpm_conductivity"
            )
            return event.cost.compute_seconds / event.cost.memory_seconds

        assert ratio(96) > 2.0 * ratio(24)

    def test_dimension_mismatch_rejected(self, system, config):
        _, current, scaled = system
        other = tight_binding_hamiltonian(chain(16), format="csr")
        with pytest.raises(ValidationError):
            GpuConductivity().run(scaled, other, config)

    def test_requires_config(self, system):
        _, current, scaled = system
        with pytest.raises(ValidationError):
            GpuConductivity().run(scaled, current, None)


class TestStorage:
    """Each operator runs, is priced and is planned in its own storage."""

    @pytest.mark.parametrize("a_storage", STORAGES)
    @pytest.mark.parametrize("h_storage", STORAGES)
    def test_runner_matches_estimator_and_plan(
        self, system, h_storage, a_storage
    ):
        _, current, scaled = system
        config = KPMConfig(num_moments=16, num_random_vectors=4, block_size=32)
        h_op = STORAGES[h_storage](scaled)
        a_op = STORAGES[a_storage](current)
        models = {
            name: spmv_model_for(op, default_spmv_format(op))
            for name, op in (("spmv", h_op), ("current_spmv", a_op))
        }
        runner = GpuConductivity()
        mu, report = runner.run(h_op, a_op, config)
        estimate = estimate_gpu_conductivity_seconds(
            TESLA_C2050, scaled.shape[0], config, **models
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)
        plan = plan_conductivity_memory(
            TESLA_C2050, scaled.shape[0], config, **models
        )
        assert runner.last_device.memory.peak_bytes == sum(plan.values())
        reference, _ = GpuConductivity().run(scaled, current, config)
        assert mu.tobytes() == reference.tobytes()


class TestBuffersFreedOnError:
    def test_each_failing_allocation_frees_everything(self, monkeypatch, system):
        _, current, scaled = system
        config = KPMConfig(num_moments=64, num_random_vectors=64, block_size=32)
        log = []  # (bytes in use once this request is granted, name)
        original = Device.alloc

        def recording(self, shape, *, dtype=np.float64, name="buffer"):
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            log.append((self.memory.used_bytes + nbytes, name))
            return original(self, shape, dtype=dtype, name=name)

        monkeypatch.setattr(Device, "alloc", recording)
        GpuConductivity(tiny_test_device()).run(scaled, current, config)
        reference = list(log)
        assert len(reference) == 9  # H and A CSR triples, stacks, partials, mu_nm
        for index, (needed, name) in enumerate(reference):
            # The run frees nothing before its end, so one byte short of
            # this request makes it the first allocation to fail.
            log.clear()
            runner = GpuConductivity(tiny_test_device(global_mem_bytes=needed - 1))
            with pytest.raises(OutOfMemoryError):
                runner.run(scaled, current, config)
            assert log == reference[: index + 1]
            memory = runner.last_device.memory
            assert memory.live_arrays == (), f"{name} failed and leaked"
            assert memory.used_bytes == 0


class TestStats:
    def test_gram_term_scales_quadratically(self):
        matrices = dict(
            spmv=uniform_csr_model(100, 700),
            current_spmv=uniform_csr_model(100, 200),
        )
        small = per_vector_conductivity_stats(100, 16, **matrices)
        large = per_vector_conductivity_stats(100, 32, **matrices)
        gram_small = 2 * 16**2 * 100
        gram_large = 2 * 32**2 * 100
        # The quadratic term must account for the difference growth.
        assert large.flops - small.flops > (gram_large - gram_small) * 0.9

    def test_memory_plan_stacks_dominate(self):
        config = KPMConfig(
            num_moments=256, num_random_vectors=128, num_realizations=14
        )
        plan = plan_conductivity_memory(
            TESLA_C2050,
            1000,
            config,
            spmv=uniform_csr_model(1000, 7000),
            current_spmv=uniform_csr_model(1000, 2000),
        )
        assert plan["stacks"] > plan["hamiltonian"]
        assert plan["stacks"] == 7 * 2 * 256 * 1000 * 8


class TestAblation:
    def test_transport_speedup_grows_with_n(self):
        from repro.bench import transport_ablation

        result = transport_ablation(n_values=(32, 128))
        speedups = result.column("speedup")
        assert speedups[1] > 1.5 * speedups[0]
