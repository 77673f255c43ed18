"""Unit tests for repro.gpukpm.pipeline and estimator."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError, ValidationError
from repro.gpu import Device, TESLA_C2050, tiny_test_device
from repro.gpukpm import (
    GpuKPM,
    estimate_gpu_kpm_seconds,
    gpu_kpm_breakdown,
    plan_memory,
    spmv_model_for,
)
from repro.kpm import KPMConfig, get_engine, rescale_operator, stochastic_moments
from repro.lattice import chain, cubic, paper_cubic_hamiltonian, tight_binding_hamiltonian
from repro.sparse import CSRMatrix, ELLMatrix, sweep
from repro.tune import Autotuner


@pytest.fixture
def scaled_cube():
    h = tight_binding_hamiltonian(cubic(4), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


@pytest.fixture
def scaled_cube_dense():
    h = tight_binding_hamiltonian(cubic(4), format="dense")
    scaled, _ = rescale_operator(h)
    return scaled


class TestFunctionalParity:
    def test_csr_moments_match_numpy(self, scaled_cube, small_config):
        gpu_data, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        reference = stochastic_moments(scaled_cube, small_config)
        np.testing.assert_allclose(gpu_data.mu, reference.mu, atol=1e-13)

    def test_dense_moments_match_numpy(self, scaled_cube_dense, small_config):
        gpu_data, _ = GpuKPM().compute_moments(scaled_cube_dense, small_config)
        reference = stochastic_moments(scaled_cube_dense, small_config)
        np.testing.assert_allclose(gpu_data.mu, reference.mu, atol=1e-13)

    def test_per_realization_match(self, scaled_cube, small_config):
        gpu_data, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        reference = stochastic_moments(scaled_cube, small_config)
        np.testing.assert_allclose(
            gpu_data.per_realization, reference.per_realization, atol=1e-13
        )

    def test_block_size_does_not_change_numerics(self, scaled_cube, small_config):
        a, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        b, _ = GpuKPM().compute_moments(scaled_cube, small_config.with_updates(block_size=16))
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-15)

    def test_reduce_kernel_mean_matches_table(self, scaled_cube, small_config):
        data, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        np.testing.assert_allclose(
            data.mu, data.per_realization.mean(axis=0), atol=1e-13
        )


class TestTimingAndResources:
    def test_estimator_matches_run_csr(self, scaled_cube, small_config):
        runner = GpuKPM()
        _, report = runner.compute_moments(scaled_cube, small_config)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050,
            scaled_cube.shape[0],
            small_config,
            spmv=spmv_model_for(scaled_cube, "csr"),
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_estimator_matches_run_dense(self, scaled_cube_dense, small_config):
        runner = GpuKPM()
        _, report = runner.compute_moments(scaled_cube_dense, small_config)
        estimate = estimate_gpu_kpm_seconds(
            TESLA_C2050, scaled_cube_dense.shape[0], small_config
        )
        assert report.modeled_seconds == pytest.approx(estimate, rel=1e-12)

    def test_breakdown_keys_match(self, scaled_cube, small_config):
        runner = GpuKPM()
        _, report = runner.compute_moments(scaled_cube, small_config)
        analytic = gpu_kpm_breakdown(
            TESLA_C2050,
            scaled_cube.shape[0],
            small_config,
            spmv=spmv_model_for(scaled_cube, "csr"),
        )
        assert set(report.breakdown) == set(analytic)
        for key, value in analytic.items():
            assert report.breakdown[key] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("spmv_format", ["dense", "csr", "csr-vector", "ell"])
    def test_memory_plan_matches_pool_peak(
        self, scaled_cube, small_config, spmv_format, precision
    ):
        config = small_config.with_updates(precision=precision)
        runner = GpuKPM(spmv_format=spmv_format)
        runner.compute_moments(scaled_cube, config)
        plan = plan_memory(
            TESLA_C2050, scaled_cube.shape[0], config, spmv=runner.last_spmv
        )
        assert runner.last_device.memory.peak_bytes == plan.total_bytes

    def test_memory_plan_of_ell_wider_than_its_longest_row(self, small_config):
        # Two all-padding slot columns are still uploaded; the plan
        # counts them.
        scaled, _ = rescale_operator(tight_binding_hamiltonian(cubic(4), format="csr"))
        ell = scaled.to_ell()
        pad = np.zeros((ell.shape[0], 2))
        wide = ELLMatrix(
            np.hstack([ell.data, pad]),
            np.hstack([ell.indices, pad.astype(np.int64)]),
            ell.row_nnz,
            ell.shape,
        )
        config = small_config.with_updates(num_moments=16)
        runner = GpuKPM()
        runner.compute_moments(wide, config)
        plan = plan_memory(TESLA_C2050, 64, config, spmv=runner.last_spmv)
        assert plan.matrix_bytes == 64 * wide.width * 16
        assert runner.last_device.memory.peak_bytes == plan.total_bytes

    def test_two_kernel_launches(self, scaled_cube, small_config):
        runner = GpuKPM()
        runner.compute_moments(scaled_cube, small_config)
        assert runner.last_device.profiler.launch_count("kpm_recursion") == 1
        assert runner.last_device.profiler.launch_count("reduce_moments") == 1

    def test_oom_on_tiny_device(self, small_config):
        h = tight_binding_hamiltonian(cubic(7), format="dense")  # 343^2 * 8 = 919 KiB
        scaled, _ = rescale_operator(h)
        runner = GpuKPM(tiny_test_device(global_mem_bytes=512 * 1024))
        from repro.errors import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            runner.compute_moments(scaled, small_config.with_updates(num_moments=256, block_size=64))

    def test_requires_config(self, scaled_cube):
        with pytest.raises(ValidationError):
            GpuKPM().compute_moments(scaled_cube, None)

    def test_requires_spec(self):
        with pytest.raises(ValidationError):
            GpuKPM("gpu")


class TestRunPartition:
    def test_partition_streams_match_full(self, scaled_cube, small_config):
        runner = GpuKPM()
        full_table, _, _ = runner.run_partition(
            scaled_cube, small_config, first_vector=0, num_vectors=16
        )
        part_a, _, _ = runner.run_partition(
            scaled_cube, small_config, first_vector=0, num_vectors=6
        )
        part_b, _, _ = runner.run_partition(
            scaled_cube, small_config, first_vector=6, num_vectors=10
        )
        np.testing.assert_allclose(
            np.concatenate([part_a, part_b], axis=0), full_table, atol=1e-15
        )

    def test_invalid_partition(self, scaled_cube, small_config):
        with pytest.raises(ValidationError):
            GpuKPM().run_partition(
                scaled_cube, small_config, first_vector=-1, num_vectors=4
            )


class TestEngine:
    def test_registered_backend_runs(self, scaled_cube, small_config):
        engine = get_engine("gpu-sim")
        data, report = engine.compute_moments(scaled_cube, small_config)
        assert report.backend == "gpu-sim"
        assert report.device == "NVIDIA Tesla C2050"
        assert data.dimension == scaled_cube.shape[0]


class TestResumableGpu:
    """Checkpoint capture + resume on the simulated device."""

    def test_resumable_matches_plain(self, scaled_cube, small_config):
        plain, _ = GpuKPM().compute_moments(scaled_cube, small_config)
        warm, _, state = GpuKPM().compute_moments_resumable(
            scaled_cube, small_config
        )
        assert np.array_equal(plain.mu, warm.mu)
        assert np.array_equal(plain.per_realization, warm.per_realization)
        assert state is not None
        assert state.num_moments == small_config.num_moments

    def test_capture_costs_more_than_plain(self, scaled_cube, small_config):
        _, plain_report = GpuKPM().compute_moments(scaled_cube, small_config)
        _, warm_report, _ = GpuKPM().compute_moments_resumable(
            scaled_cube, small_config
        )
        assert warm_report.modeled_seconds > plain_report.modeled_seconds

    @pytest.mark.parametrize("fmt", ["csr", "dense"])
    def test_extension_bitwise_matches_cold(self, fmt, small_config):
        h = tight_binding_hamiltonian(cubic(4), format=fmt)
        scaled, _ = rescale_operator(h)
        engine = GpuKPM()
        warm, _, state = engine.compute_moments_resumable(scaled, small_config)
        bigger = small_config.with_updates(
            num_moments=2 * small_config.num_moments + 3
        )
        extended, report, new_state = engine.extend_moments(
            scaled, bigger, warm, state
        )
        cold, _ = engine.compute_moments(scaled, bigger)
        assert np.array_equal(extended.mu, cold.mu)
        assert np.array_equal(extended.per_realization, cold.per_realization)
        assert new_state.num_moments == bigger.num_moments
        # Resuming is cheaper than a cold run at the target order.
        assert report.modeled_seconds < engine.estimate_modeled_seconds(
            scaled, bigger
        )

    def test_extension_validates_state(self, scaled_cube, small_config):
        engine = GpuKPM()
        warm, _, state = engine.compute_moments_resumable(
            scaled_cube, small_config
        )
        with pytest.raises(ValidationError, match="exceed"):
            engine.extend_moments(scaled_cube, small_config, warm, state)
        mismatched = small_config.with_updates(
            num_moments=small_config.num_moments * 2,
            num_random_vectors=small_config.num_random_vectors + 1,
        )
        with pytest.raises(ValidationError, match="vectors"):
            engine.extend_moments(scaled_cube, mismatched, warm, state)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"num_random_vectors": 3}, "num_random_vectors"),
            ({"num_realizations": 3}, "num_realizations"),
            ({"vector_kind": "gaussian"}, "vector_kind"),
            ({"seed": 99}, "seed"),
            ({"use_doubling": True}, "use_doubling"),
            ({"precision": "single"}, "precision"),
            # Same R * S = 16 vectors, regrouped.
            ({"num_random_vectors": 4, "num_realizations": 4}, "num_random_vectors"),
        ],
    )
    def test_extension_rejects_changed_run(
        self, scaled_cube, small_config, changes, field
    ):
        engine = GpuKPM()
        warm, _, state = engine.compute_moments_resumable(
            scaled_cube, small_config
        )
        changed = small_config.with_updates(
            num_moments=small_config.num_moments + 4, **changes
        )
        with pytest.raises(ValidationError, match=field):
            engine.extend_moments(scaled_cube, changed, warm, state)

    def test_estimator_capability_matches_execution(
        self, scaled_cube, small_config
    ):
        engine = GpuKPM()
        _, report = engine.compute_moments(scaled_cube, small_config)
        estimate = engine.estimate_modeled_seconds(scaled_cube, small_config)
        np.testing.assert_allclose(report.modeled_seconds, estimate, rtol=1e-12)

    def test_resume_rejected_in_checkpoint_mode(self, scaled_cube, small_config):
        engine = GpuKPM()
        _, _, state = engine.compute_moments_resumable(scaled_cube, small_config)
        bigger = small_config.with_updates(
            num_moments=small_config.num_moments + 4
        )
        with pytest.raises(ValidationError, match="incompatible"):
            engine.run_partition(
                scaled_cube,
                bigger,
                first_vector=0,
                num_vectors=bigger.total_vectors,
                start_moment=state.num_moments,
                resume_state=state.pair,
                checkpoint_every=2,
            )


class TestBuffersFreedOnError:
    """A run that raises leaves no device buffer live, a partial upload included."""

    CONFIG = KPMConfig(
        num_moments=12, num_random_vectors=5, num_realizations=1, seed=3, block_size=2
    )

    @staticmethod
    def _record_allocations(monkeypatch):
        """Log ``(bytes in use before, bytes requested, name)`` per allocation."""
        log = []
        original = Device.alloc

        def recording(self, shape, *, dtype=np.float64, name="buffer"):
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            log.append((self.memory.used_bytes, nbytes, name))
            return original(self, shape, dtype=dtype, name=name)

        monkeypatch.setattr(Device, "alloc", recording)
        return log

    @staticmethod
    def _runs(scaled, config):
        bigger = config.with_updates(num_moments=config.num_moments + 5)
        data, _, state = GpuKPM().compute_moments_resumable(scaled, config)
        return {
            "cold": lambda engine: engine.compute_moments(scaled, config),
            "capture": lambda engine: engine.compute_moments_resumable(scaled, config),
            "resume": lambda engine: engine.extend_moments(scaled, bigger, data, state),
            "chunked": lambda engine: engine.run_partition(
                scaled, config, first_vector=1, num_vectors=4, checkpoint_every=2
            ),
        }

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("mode", ["cold", "capture", "resume", "chunked"])
    def test_each_failing_allocation_frees_everything(
        self, monkeypatch, storage, mode
    ):
        h = tight_binding_hamiltonian(cubic(3), format=storage)
        scaled, _ = rescale_operator(h)
        run = self._runs(scaled, self.CONFIG)[mode]
        log = self._record_allocations(monkeypatch)
        run(GpuKPM(tiny_test_device()))
        reference = list(log)
        high_water = 0
        swept = set()
        for index, (used, nbytes, name) in enumerate(reference):
            # A capacity one byte short of this request makes it the
            # first allocation to fail, unless an earlier one needs more.
            capacity = used + nbytes - 1
            if capacity < high_water:
                continue
            high_water = used + nbytes
            log.clear()
            engine = GpuKPM(tiny_test_device(global_mem_bytes=capacity))
            with pytest.raises(OutOfMemoryError):
                run(engine)
            assert len(log) == index + 1 and log[-1][2] == name
            memory = engine.last_device.memory
            assert memory.live_arrays == (), f"{name} failed and leaked"
            assert memory.used_bytes == 0
            swept.add(name)
        assert swept == {name for _, _, name in reference}


class TestOneConversionPerRun:
    """A dense-stored operator is converted at most once per call."""

    @pytest.fixture()
    def conversions(self, monkeypatch):
        calls = []
        from_dense = CSRMatrix.from_dense.__func__

        def counting(cls, dense, **kwargs):
            calls.append(dense.shape)
            return from_dense(cls, dense, **kwargs)

        monkeypatch.setattr(CSRMatrix, "from_dense", classmethod(counting))
        return calls

    @pytest.mark.parametrize("storage, once", [("dense", 1), ("csr", 0)])
    def test_tuned_run_converts_once(self, conversions, small_config, storage, once):
        scaled, _ = rescale_operator(paper_cubic_hamiltonian(6, format=storage))
        runner = GpuKPM(tuner=Autotuner())
        counts = []
        for call in (
            runner.compute_moments,
            runner.estimate_modeled_seconds,
            runner.compute_moments,  # a tuner-cache hit
        ):
            before = len(conversions)
            call(scaled, small_config)
            counts.append(len(conversions) - before)
        assert counts == [once] * 3

    @pytest.mark.parametrize("fmt, once", [("ell", 1), ("csr-vector", 1), ("dense", 0)])
    def test_pinned_format_converts_at_most_once(self, conversions, small_config, fmt, once):
        scaled, _ = rescale_operator(paper_cubic_hamiltonian(6, format="dense"))
        GpuKPM(spmv_format=fmt).compute_moments(scaled, small_config)
        assert len(conversions) == once

    @pytest.mark.parametrize("fmt", [None, "csr", "ell", "dense"])
    def test_dense_storage_runs_as_its_csr_copy(self, small_config, fmt):
        dense, _ = rescale_operator(paper_cubic_hamiltonian(6, format="dense"))
        runs = []
        for op in (dense, dense.to_csr()):
            runner = GpuKPM(tuner=Autotuner()) if fmt is None else GpuKPM(spmv_format=fmt)
            data, report = runner.compute_moments(op, small_config)
            seconds = runner.estimate_modeled_seconds(op, small_config)
            runs.append(
                (data.mu.tobytes(), data.per_realization.tobytes(), report.modeled_seconds, seconds)
            )
        assert runs[0] == runs[1]


class TestUploadReusesThePlan:
    """Patterns are checked once per operator, never per upload or launch."""

    @pytest.fixture()
    def plans_built(self, monkeypatch):
        calls = []
        init = sweep.SweepPlan.__init__

        def counting(plan, *args):
            calls.append(args)
            init(plan, *args)

        monkeypatch.setattr(sweep.SweepPlan, "__init__", counting)
        return calls

    @pytest.mark.parametrize("storage", ["csr", "ell"])
    def test_plan_built_once_per_operator(self, plans_built, small_config, storage):
        scaled, _ = rescale_operator(tight_binding_hamiltonian(cubic(4), format="csr"))
        before = len(plans_built)
        op = (
            CSRMatrix(scaled.indptr, scaled.indices, scaled.data, scaled.shape)
            if storage == "csr"
            else scaled.to_ell()
        )
        built = len(plans_built)
        assert built == before + 1
        device = Device(TESLA_C2050)
        spmv = spmv_model_for(op, storage)
        matrix = GpuKPM._upload_matrix(device, op, spmv, op.shape[0], np.float64)
        assert matrix.plan is op.sweep_plan
        runner = GpuKPM()
        runner.compute_moments(op, small_config)
        runner.compute_moments(op, small_config.with_updates(num_moments=40))
        assert len(plans_built) == built

    def test_tuned_conversion_builds_one_plan(self, plans_built, small_config):
        scaled, _ = rescale_operator(tight_binding_hamiltonian(cubic(4), format="csr"))
        before = len(plans_built)
        GpuKPM(spmv_format="ell").compute_moments(scaled, small_config)
        assert len(plans_built) - before == 1  # the ELL copy of the CSR operator
