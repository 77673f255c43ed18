"""Property-based tests backing the static kernel verifier's axioms.

The verifier's proofs rest on two kinds of ground truth:

* the *partition axioms* — ``ctx.thread_range`` and ``plan.vectors_of``
  really do tile ``[0, total)`` with pairwise block-disjoint cells, so
  treating a partition cell as disjoint-by-construction (RA017) and
  exactly-once covering (RA019) is sound; and

* *hull soundness* — the affine hull the abstract interpreter computes
  for every device access really contains only in-extent indices, for
  any concrete in-domain valuation of the launch symbols.

Both are checked here against the runtime implementations and the
shipped block programs, under randomized geometries and valuations.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.kernelver import find_kernel_defs, interpret_mode
from repro.analysis.kernelver.interp import ref_extent
from repro.analysis.kernelver.values import Ref, dim_hull
from repro.errors import ValidationError
from repro.gpu import TESLA_C2050, Dim3, KernelStats
from repro.gpu.kernel import BlockContext
from repro.gpukpm import plan_grid

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
KERNEL_MODULES = (
    SRC_REPRO / "gpukpm" / "kernels.py",
    SRC_REPRO / "gpukpm" / "conductivity_gpu.py",
)


def _block_context(grid: int, block: int, block_id: int) -> BlockContext:
    return BlockContext(
        grid_dim=Dim3(grid),
        block_dim=Dim3(block),
        block_idx=Dim3(block_id, 0, 0),
        shared_limit_bytes=48 * 1024,
        stats=KernelStats(),
    )


class TestThreadRangePartition:
    """The runtime partition behind ``cell(thread_range: total)``."""

    @given(
        total=st.integers(0, 4000),
        grid=st.integers(1, 9),
        block=st.integers(1, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_cells_disjoint_and_exact(self, total, grid, block):
        cells = [
            _block_context(grid, block, b).thread_range(total)
            for b in range(grid)
        ]
        counts = np.zeros(total, dtype=np.int64)
        for cell in cells:
            # in-range and duplicate-free within the block
            assert cell.size == np.unique(cell).size
            if cell.size:
                assert cell.min() >= 0 and cell.max() < total
            np.add.at(counts, cell, 1)
        # every item owned by exactly one block: disjoint + covering
        np.testing.assert_array_equal(counts, np.ones(total, dtype=np.int64))

    @given(
        total=st.integers(1, 2000),
        grid=st.integers(1, 9),
        block=st.integers(1, 70),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_are_sorted_strides(self, total, grid, block):
        # Each block's cell is strictly increasing — the grid-stride
        # loop never revisits an item.
        for b in range(grid):
            cell = _block_context(grid, block, b).thread_range(total)
            if cell.size > 1:
                assert (np.diff(cell) > 0).all()


class TestGridPlanPartition:
    """The runtime partition behind ``cell(vectors_of: total)``."""

    @given(
        vectors=st.integers(1, 5000),
        block_size=st.sampled_from((32, 64, 128, 256, 512, 1024)),
    )
    @settings(max_examples=60)
    def test_cells_disjoint_and_exact(self, vectors, block_size):
        plan = plan_grid(vectors, block_size, TESLA_C2050)
        seen = np.zeros(vectors, dtype=np.int64)
        for b in range(plan.num_blocks):
            cell = np.asarray(list(plan.vectors_of(b)), dtype=np.int64)
            assert cell.min() >= 0 and cell.max() < vectors
            np.add.at(seen, cell, 1)
        np.testing.assert_array_equal(seen, np.ones(vectors, dtype=np.int64))

    @given(
        vectors=st.integers(1, 5000),
        block_size=st.sampled_from((32, 64, 128, 256)),
    )
    @settings(max_examples=40)
    def test_out_of_range_block_rejected(self, vectors, block_size):
        plan = plan_grid(vectors, block_size, TESLA_C2050)
        with pytest.raises(ValidationError):
            plan.vectors_of(plan.num_blocks)


def _all_mode_results():
    """(kernel, mode, contract, result) for every shipped block program."""
    out = []
    for path in KERNEL_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for kernel_def in find_kernel_defs(tree):
            assert kernel_def.contract is not None, kernel_def.kernel_name
            for mode in kernel_def.contract.modes:
                result = interpret_mode(
                    kernel_def.func, kernel_def.contract, mode, tree
                )
                out.append(
                    (kernel_def.kernel_name, mode.name, kernel_def.contract, result)
                )
    return out


class TestHullSoundness:
    """Concretized access hulls stay inside the declared extents.

    For random in-domain valuations (``Domain.sample``), every affine
    hull the interpreter computed for the shipped kernels evaluates to
    an index range inside ``[0, extent)`` — the concrete counterpart of
    the RA016 proof.
    """

    @given(seed=st.integers(0, 2**32 - 1), span=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_shipped_kernel_hulls_in_extent(self, seed, span):
        rng = np.random.default_rng(seed)
        modes = _all_mode_results()
        checked = {(kernel, mode): 0 for kernel, mode, _, _ in modes}
        for kernel, mode, contract, result in modes:
            for access in result.accesses:
                extent = ref_extent(contract, Ref(access.param, access.field))
                if extent is None:
                    continue
                domain = access.domain if access.domain is not None else result.domain
                try:
                    valuation = domain.sample(rng, span=span)
                except ValidationError as exc:
                    # A loop symbol's concrete range is empty at this
                    # valuation: the access never executes — vacuous.
                    assert "empty concrete range" in str(exc)
                    continue
                for dim, ext in zip(access.dims, extent):
                    hull = dim_hull(dim, ext, domain)
                    assert hull is not None, (kernel, mode, access)
                    lo = hull[0].evaluate(valuation)
                    hi = hull[1].evaluate(valuation)
                    bound = ext.evaluate(valuation)
                    label = (kernel, mode, access.param, access.line)
                    assert lo <= hi + 1, label  # empty cells allowed
                    assert 0 <= lo, label
                    assert hi <= bound - 1, label
                    checked[kernel, mode] += 1
        # The sweep actually exercised every shipped kernel mode.
        assert min(checked.values()) >= 1, checked
