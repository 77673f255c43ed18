"""Bit-identity of the CSR and ELL sweeps against an independent reference.

The format bit-identity suites compare dense, CSR and ELL sweeps with
each other, so a bug in the shared canonical order would pass them all.
Here the reference is a plain per-row loop written in this file: for
each row, start from ``+0.0`` and add ``data[p] * x[indices[p]]`` over
the stored entries left to right.  It never touches
:mod:`repro.sparse.sweep`, so it checks the compiled row loop from
outside: a build that reordered the sum or fused a multiply-add would
fail here.  Results are compared byte for byte, which also pins the
sign of zero.  The ELL reference walks every padded slot, so a
non-finite ``x[0]`` shows whether the padding terms are still added;
the single-precision cases pin the device's float32 path.

The second half checks :meth:`CSRMatrix.is_symmetric` with a tolerance
against the dense formula ``max|A - A.T| <= tolerance``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix
from repro.sparse.sweep import (
    build_sweep_plan,
    csr_sweep_matmat,
    csr_sweep_matvec,
    ell_sweep_matmat,
    ell_sweep_matvec,
)

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


def reference_matvec(csr, x, data=None):
    """Per-row left-to-right accumulation from +0.0 (no sweep code).

    ``data`` replaces the stored values, e.g. by a float32 copy; the
    accumulator takes the promoted dtype of the values and ``x``.
    """
    data = csr.data if data is None else data
    zero = np.result_type(data, x).type(0.0)
    out = np.empty(csr.shape[0], dtype=zero.dtype)
    for row in range(csr.shape[0]):
        acc = zero
        for p in range(csr.indptr[row], csr.indptr[row + 1]):
            acc = acc + data[p] * x[csr.indices[p]]
        out[row] = acc
    return out


def reference_matmat(csr, block, data=None):
    columns = [reference_matvec(csr, block[:, j], data) for j in range(block.shape[1])]
    return np.stack(columns, axis=1)


def reference_ell_matvec(ell_data, ell_indices, x):
    """Per-row walk over every ELL slot, padded slots included."""
    out = np.empty(ell_data.shape[0], dtype=np.float64)
    with np.errstate(invalid="ignore"):  # 0.0 * inf is NaN on purpose
        for row in range(ell_data.shape[0]):
            acc = np.float64(0.0)
            for slot in range(ell_data.shape[1]):
                acc = acc + ell_data[row, slot] * x[ell_indices[row, slot]]
            out[row] = acc
    return out


def vectors(length, count=None):
    shape = (length,) if count is None else (length, count)
    size = length if count is None else length * count
    return st.lists(values, min_size=size, max_size=size).map(
        lambda items: np.array(items, dtype=np.float64).reshape(shape)
    )


def sweep(csr, operand, data=None):
    data = csr.data if data is None else data
    plan = build_sweep_plan(csr.indptr, csr.indices, csr.shape)
    if operand.ndim == 1:
        return csr_sweep_matvec(data, plan, operand)
    return csr_sweep_matmat(data, plan, operand)


#: A first entry that is non-finite: 0.0 * x[0] is NaN, so every padded
#: ELL slot shows in the result.
non_finite = st.sampled_from([np.inf, -np.inf, np.nan])

#: float32 values: signed zeros, subnormals, and magnitudes up to 2**50,
#: so products (below 2**100) and row sums stay finite.
values32 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.0, -1.0]),
    st.floats(-(2.0**50), 2.0**50, width=32, allow_nan=False, allow_infinity=False),
)


def vectors32(length, count=None):
    shape = (length,) if count is None else (length, count)
    size = length if count is None else length * count
    return st.lists(values32, min_size=size, max_size=size).map(
        lambda items: np.array(items, dtype=np.float32).reshape(shape)
    )


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


class TestEllMatchesReference:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matvec_walks_every_padded_slot(self, data):
        ell = data.draw(canonical_csr()).to_ell()
        x = data.draw(vectors(ell.shape[1]))
        if data.draw(st.booleans()):
            x[0] = data.draw(non_finite)
        expected = reference_ell_matvec(ell.data, ell.indices, x)
        assert ell_sweep_matvec(ell.data, ell.sweep_plan, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmat_walks_every_padded_slot(self, k, data):
        ell = data.draw(canonical_csr()).to_ell()
        block = data.draw(vectors(ell.shape[1], k))
        block[0, :] = data.draw(non_finite)
        expected = np.stack(
            [reference_ell_matvec(ell.data, ell.indices, block[:, j]) for j in range(k)],
            axis=1,
        )
        assert ell_sweep_matmat(ell.data, ell.sweep_plan, block).tobytes() == expected.tobytes()


class TestSinglePrecision:
    """The device's float32 storage, with float32 and float64 operands."""

    @pytest.mark.parametrize("k", [None, 2])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_float32_data_and_operand(self, k, data):
        csr = data.draw(canonical_csr())
        values = data.draw(vectors32(csr.nnz_stored))
        operand = data.draw(vectors32(csr.shape[1], k))
        result = sweep(csr, operand, values)
        assert result.dtype == np.float32
        expected = (
            reference_matvec(csr, operand, values)
            if k is None
            else reference_matmat(csr, operand, values)
        )
        assert result.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [None, 2])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_float32_data_float64_operand(self, k, data):
        csr = data.draw(canonical_csr())
        values = data.draw(vectors32(csr.nnz_stored))
        operand = data.draw(vectors(csr.shape[1], k))
        result = sweep(csr, operand, values)
        assert result.dtype == np.float64
        expected = (
            reference_matvec(csr, operand, values)
            if k is None
            else reference_matmat(csr, operand, values)
        )
        assert result.tobytes() == expected.tobytes()


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
