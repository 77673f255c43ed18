"""Bit-identity of the CSR sweep against an independent reference.

The format bit-identity suites compare dense, CSR and ELL sweeps with
each other, so a bug in the shared canonical order would pass them all.
Here the reference is a plain per-row loop written in this file: for
each row, start from ``+0.0`` and add ``data[p] * x[indices[p]]`` over
the stored entries left to right.  It never touches
:class:`repro.sparse.sweep.SweepPlan`, so it checks both slot kinds
(strided, row subset) from outside.  Results are compared byte
for byte, which also pins the sign of zero.

The second half checks :meth:`CSRMatrix.is_symmetric` with a tolerance
against the dense formula ``max|A - A.T| <= tolerance``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix
from repro.sparse.sweep import build_sweep_plan, csr_sweep_matmat, csr_sweep_matvec

TINY = np.finfo(np.float64).tiny  # smallest normal double

#: Signed zeros, subnormals and magnitudes from 1e-150 to 1e150.  Any
#: product stays below 1e300, so no row of at most 12 terms overflows.
values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY / 3, -TINY / 7, 1.0, -1.0]),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def canonical_csr(draw, max_dim=12):
    """Canonical CSR triples with uniform, ragged or partly empty rows."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    layout = draw(st.sampled_from(["uniform", "ragged", "empty-rows"]))
    if layout == "uniform":
        lengths = [draw(st.integers(0, n_cols))] * n_rows
    elif layout == "ragged":
        lengths = draw(
            st.lists(st.integers(1, n_cols), min_size=n_rows, max_size=n_rows)
        )
    else:
        lengths = draw(
            st.lists(st.integers(0, n_cols), min_size=n_rows, max_size=n_rows)
        )
        lengths[draw(st.integers(0, n_rows - 1))] = 0
    indices = []
    for length in lengths:
        columns = draw(
            st.lists(
                st.integers(0, n_cols - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        indices.extend(sorted(columns))
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    data = draw(st.lists(values, min_size=nnz, max_size=nnz))
    return CSRMatrix(indptr, indices, data, (n_rows, n_cols))


def reference_matvec(csr, x):
    """Per-row left-to-right accumulation from +0.0 (no SweepPlan)."""
    out = np.empty(csr.shape[0], dtype=np.float64)
    for row in range(csr.shape[0]):
        acc = np.float64(0.0)
        for p in range(csr.indptr[row], csr.indptr[row + 1]):
            acc = acc + csr.data[p] * x[csr.indices[p]]
        out[row] = acc
    return out


def reference_matmat(csr, block):
    columns = [reference_matvec(csr, block[:, j]) for j in range(block.shape[1])]
    return np.stack(columns, axis=1)


def vectors(length, count=None):
    shape = (length,) if count is None else (length, count)
    size = length if count is None else length * count
    return st.lists(values, min_size=size, max_size=size).map(
        lambda items: np.array(items, dtype=np.float64).reshape(shape)
    )


def sweep(csr, operand):
    plan = build_sweep_plan(csr.indptr, csr.shape[0])
    if operand.ndim == 1:
        return csr_sweep_matvec(csr.data, csr.indices, plan, operand)
    return csr_sweep_matmat(csr.data, csr.indices, plan, operand)


class TestSweepMatchesReference:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matvec_bit_identical(self, data):
        csr = data.draw(canonical_csr())
        x = data.draw(vectors(csr.shape[1]))
        assert sweep(csr, x).tobytes() == reference_matvec(csr, x).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmat_bit_identical(self, k, data):
        csr = data.draw(canonical_csr())
        block = data.draw(vectors(csr.shape[1], k))
        assert sweep(csr, block).tobytes() == reference_matmat(csr, block).tobytes()

    @pytest.mark.parametrize(
        "csr",
        [
            CSRMatrix([0, 0, 0], [], [], (2, 3)),  # nnz = 0
            CSRMatrix([0, 3], [0, 2, 4], [1.5, -0.0, 5e-324], (1, 5)),  # one row
            CSRMatrix([0, 1, 1, 2], [0, 0], [-0.0, 2.0], (3, 1)),  # one column
        ],
        ids=["nnz-0", "single-row", "single-column"],
    )
    def test_edge_shapes(self, csr):
        x = np.linspace(-1.0, 1.0, csr.shape[1])
        block = np.stack([x, -x, np.full_like(x, -0.0)], axis=1)
        assert sweep(csr, x).tobytes() == reference_matvec(csr, x).tobytes()
        assert sweep(csr, block).tobytes() == reference_matmat(csr, block).tobytes()


def dense_verdict(csr, tolerance):
    dense = csr.to_dense()
    return bool(np.max(np.abs(dense - dense.T), initial=0.0) <= tolerance)


@st.composite
def square_csr(draw, max_dim=10):
    """Symmetric, near-symmetric or pattern-asymmetric square matrices."""
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["symmetric", "near", "asymmetric"]))
    mask = rng.random((dim, dim)) < draw(st.floats(0.0, 0.8))
    dense = np.where(mask, rng.standard_normal((dim, dim)), 0.0)
    if kind != "asymmetric":
        dense = np.triu(dense) + np.triu(dense, 1).T
    if kind == "near":
        noise = rng.choice([0.0, 1e-13, -1e-12, 1e-9], size=(dim, dim))
        dense = np.where(dense != 0.0, dense + noise, 0.0)
    # Explicit stored zeros: keep some zero entries in the pattern.
    stored = (dense != 0.0) | (rng.random((dim, dim)) < 0.1)
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return CSRMatrix(indptr, cols, dense[rows, cols], (dim, dim))


class TestIsSymmetricMatchesDense:
    @given(
        csr=square_csr(),
        tolerance=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6, 0.5, 3.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_verdict_equals_dense_formula(self, csr, tolerance):
        assert csr.is_symmetric(tolerance) == dense_verdict(csr, tolerance)

    @given(csr=square_csr())
    @settings(max_examples=100, deadline=None)
    def test_tie_at_tolerance(self, csr):
        dense = csr.to_dense()
        gap = float(np.max(np.abs(dense - dense.T), initial=0.0))
        if gap > 0.0:
            assert csr.is_symmetric(gap) and dense_verdict(csr, gap)
            below = np.nextafter(gap, 0.0)
            assert not csr.is_symmetric(below) and not dense_verdict(csr, below)

    @given(csr=square_csr())
    @settings(max_examples=100, deadline=None)
    def test_exact_mode_matches_transpose(self, csr):
        transposed = csr.transpose()
        exact = (
            np.array_equal(csr.indptr, transposed.indptr)
            and np.array_equal(csr.indices, transposed.indices)
            and np.array_equal(csr.data, transposed.data)
        )
        assert csr.is_symmetric() == exact
