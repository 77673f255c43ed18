"""Seeded-violation tests: every sanitizer detector must fire its code.

Each test builds the smallest workload exhibiting one defect class and
asserts the exact ``SANxxx`` finding (and nothing unexpected); the
final class checks the contextvar plumbing and that instrumentation is
inert when no sanitizer is active.
"""

import warnings

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu import Device, kernel, tiny_test_device
from repro.sanitize import (
    NULL_SANITIZER,
    DeviceSanitizer,
    NullSanitizer,
    current_sanitizer,
)


@kernel("san_uninit")
def uninit_read_kernel(ctx, src, dst):
    dst.data[0] = float(src.data[0])


@kernel("san_oob")
def oob_slice_kernel(ctx, arr):
    arr.data[0:100] = 1.0


@kernel("san_ww")
def ww_overlap_kernel(ctx, arr):
    arr.data[0] = float(ctx.linear_block_id)


@kernel("san_rw")
def rw_overlap_kernel(ctx, arr, out):
    arr.data[ctx.linear_block_id] = 1.0
    out.data[ctx.linear_block_id] = float(arr.data.sum())


@kernel("san_tiled")
def tiled_ok_kernel(ctx, arr):
    idx = ctx.thread_range(arr.shape[0])
    arr.data[idx] = 1.0


def codes(sanitizer):
    return [f.code for f in sanitizer.findings]


@pytest.fixture
def device():
    return Device(tiny_test_device())


class TestMemoryDetectors:
    def test_uninitialized_read_reports_san001(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            src = device.alloc(8, name="never-written")
            dst = device.alloc(8, name="dst")
            device.launch(uninit_read_kernel, grid=1, block=32, args=(src, dst))
        assert codes(sanitizer) == ["SAN001"]
        (finding,) = sanitizer.findings
        assert finding.array == "never-written"
        assert finding.kernel == "san_uninit"
        assert finding.block == 0

    def test_htod_initializes_and_stays_clean(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            src = device.alloc(8, name="src")
            dst = device.alloc(8, name="dst")
            device.memcpy_htod(src, np.ones(8))
            device.launch(uninit_read_kernel, grid=1, block=32, args=(src, dst))
        assert codes(sanitizer) == []

    def test_dtoh_of_uninitialized_buffer_reports_san001(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="cold")
            device.memcpy_dtoh(np.empty(8), arr)
        assert codes(sanitizer) == ["SAN001"]

    def test_oob_slice_reports_san002(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="small")
            device.launch(oob_slice_kernel, grid=1, block=32, args=(arr,))
        assert codes(sanitizer) == ["SAN002"]
        (finding,) = sanitizer.findings
        assert finding.kernel == "san_oob"

    def test_use_after_free_reports_san003(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="dangling")
            device.memcpy_htod(arr, np.ones(8))
            arr.free()
            arr.data  # dangling device pointer: recorded, not raised
        assert codes(sanitizer) == ["SAN003"]

    def test_double_free_reports_san004_and_still_raises(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="twice")
            arr.free()
            with pytest.raises(DeviceError, match="already freed"):
                arr.free()
        assert codes(sanitizer) == ["SAN004"]

    def test_leak_at_reset_reports_san005(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            device.alloc(4, name="leaky")
            with pytest.warns(ResourceWarning, match="'leaky'"):
                device.reset()
        assert codes(sanitizer) == ["SAN005"]
        assert "still live at device reset" in sanitizer.findings[0].message

    def test_leak_warning_fires_without_sanitizer_too(self, device):
        device.alloc(4, name="leaky")
        with pytest.warns(ResourceWarning, match="leaked allocation"):
            device.reset()

    def test_freed_arrays_do_not_leak(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(4, name="tidy")
            arr.free()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                device.reset()
        assert codes(sanitizer) == []


class TestHazardDetectors:
    def test_write_write_overlap_reports_san006(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="shared")
            device.launch(ww_overlap_kernel, grid=3, block=32, args=(arr,))
        assert set(codes(sanitizer)) == {"SAN006"}
        blocks = {f.block for f in sanitizer.findings}
        assert blocks == {0, 1}  # deduped per left-block of each pair

    def test_read_write_overlap_reports_san007(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(2, name="peeked")
            out = device.alloc(2, name="out")
            device.memcpy_htod(arr, np.zeros(2))
            device.launch(rw_overlap_kernel, grid=2, block=32, args=(arr, out))
        assert set(codes(sanitizer)) == {"SAN007"}
        assert {f.block for f in sanitizer.findings} == {0, 1}

    def test_thread_range_tiling_is_hazard_free(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(64, name="tiled")
            device.launch(tiled_ok_kernel, grid=4, block=8, args=(arr,))
        assert codes(sanitizer) == []

    def test_suppressed_codes_route_to_suppressed_list(self, device):
        sanitizer = DeviceSanitizer(suppress=("SAN006",))
        with sanitizer.activate():
            arr = device.alloc(8, name="shared")
            device.launch(ww_overlap_kernel, grid=2, block=32, args=(arr,))
        assert sanitizer.findings == []
        assert [f.code for f in sanitizer.suppressed] == ["SAN006"]

    def test_report_carries_stats_and_workload(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="a")
            device.launch(tiled_ok_kernel, grid=2, block=8, args=(arr,))
        report = sanitizer.report(label="unit", workload={"grid": 2})
        assert report.clean
        assert report.stats["launches_checked"] == 1
        assert report.stats["blocks_checked"] == 2
        assert report.stats["arrays_tracked"] >= 1
        assert report.workload == {"grid": 2}


class TestAmbientPlumbing:
    def test_default_is_the_shared_null_sanitizer(self):
        assert current_sanitizer() is NULL_SANITIZER
        assert not NULL_SANITIZER.enabled

    def test_activate_restores_previous_sanitizer(self):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            assert current_sanitizer() is sanitizer
            inner = DeviceSanitizer()
            with inner.activate():
                assert current_sanitizer() is inner
            assert current_sanitizer() is sanitizer
        assert current_sanitizer() is NULL_SANITIZER

    def test_activate_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with DeviceSanitizer().activate():
                raise RuntimeError("boom")
        assert current_sanitizer() is NULL_SANITIZER

    def test_data_is_raw_ndarray_when_off(self, device):
        arr = device.alloc(8)
        assert arr.data is arr.raw
        assert isinstance(arr.data, np.ndarray)

    def test_unknown_suppress_code_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="SAN042"):
            DeviceSanitizer(suppress=("SAN042",))

    def test_null_sanitizer_view_is_raw(self, device):
        arr = device.alloc(8)
        assert NullSanitizer().view(arr) is arr.raw


class TestArrayProtocol:
    """``np.asarray``/``np.array`` on a view follow NumPy's ``copy=`` rules.

    Each conversion records exactly one whole-view read.
    """

    @pytest.fixture
    def sanitized(self, device):
        sanitizer = DeviceSanitizer()
        with sanitizer.activate():
            arr = device.alloc(8, name="buf")
            device.memcpy_htod(arr, np.arange(8.0))
            before = sanitizer.accesses_checked
            yield arr
            assert sanitizer.accesses_checked == before + 1
        assert sanitizer.findings == []

    def test_asarray_of_matching_dtype_shares_the_buffer(self, sanitized):
        out = np.asarray(sanitized.data, dtype=np.float64)
        assert np.shares_memory(out, sanitized.raw)

    def test_array_returns_a_copy(self, sanitized):
        out = np.array(sanitized.data)
        assert not np.shares_memory(out, sanitized.raw)
        out[0] = -1.0
        assert sanitized.raw[0] == 0.0

    def test_array_with_copy_true_returns_a_copy(self, sanitized):
        out = np.array(sanitized.data, copy=True)
        assert not np.shares_memory(out, sanitized.raw)
        assert out.tobytes() == sanitized.raw.tobytes()

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0",
        reason="np.asarray takes copy= from NumPy 2.0",
    )
    def test_conversion_without_copy_raises(self, sanitized):
        with pytest.raises(ValueError):
            np.asarray(sanitized.data, dtype=np.float32, copy=False)
