"""Unit tests for the slot plan of repro.sparse.sweep."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.lattice import cubic, paper_cubic_hamiltonian, tight_binding_hamiltonian
from repro.sparse import CSRMatrix
from repro.sparse.sweep import build_sweep_plan, csr_sweep_matmat, csr_sweep_matvec


def slot_kinds(plan):
    """Name each slot by the form the sweep runs it in."""
    kinds = []
    for rows, positions in plan.slots:
        if isinstance(positions, slice):
            assert rows is None
            kinds.append("strided")
        else:
            kinds.append("rows")
    return kinds


class TestSlotClassification:
    def test_uniform_rows_are_all_strided(self):
        plan = build_sweep_plan(np.arange(0, 13, 3), 4)
        assert slot_kinds(plan) == ["strided"] * 3
        assert [pos for _, pos in plan.slots] == [
            slice(0, 12, 3),
            slice(1, 12, 3),
            slice(2, 12, 3),
        ]

    def test_paper_cube_is_strided(self):
        hamiltonian = paper_cubic_hamiltonian(4, format="csr").scale_shift(0.2, 0.1)
        assert slot_kinds(hamiltonian.sweep_plan) == ["strided"] * 7

    def test_ragged_rows_are_row_subsets(self):
        # Row lengths 2, 4, 3: slots 0-1 cover every row, 2-3 the tail.
        plan = build_sweep_plan([0, 2, 6, 9], 3)
        assert plan.nnz == 9
        assert slot_kinds(plan) == ["rows"] * 4
        rows, positions = plan.slots[1]
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(positions, [1, 3, 7])
        rows, positions = plan.slots[2]
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(positions, [4, 8])
        rows, positions = plan.slots[3]
        np.testing.assert_array_equal(rows, [1])
        np.testing.assert_array_equal(positions, [5])

    def test_empty_row_makes_every_slot_a_subset(self):
        plan = build_sweep_plan([0, 2, 2, 3], 3)
        assert slot_kinds(plan) == ["rows", "rows"]

    def test_no_entries_no_slots(self):
        plan = build_sweep_plan([0, 0, 0], 2)
        assert plan.slots == [] and plan.nnz == 0

    def test_open_chain_is_ragged(self):
        chain = tight_binding_hamiltonian(cubic(3, periodic=False), format="csr")
        assert "rows" in slot_kinds(chain.sweep_plan)


class TestPlanGuard:
    def test_other_matrix_plan_raises(self):
        small = CSRMatrix.from_dense(np.eye(3))
        wide = CSRMatrix.from_dense(np.ones((3, 3)))
        x = np.ones(3)
        with pytest.raises(ShapeError, match="nnz=3"):
            csr_sweep_matvec(wide.data, wide.indices, small.sweep_plan, x)
        with pytest.raises(ShapeError, match="nnz=9"):
            csr_sweep_matmat(small.data, small.indices, wide.sweep_plan, x[:, None])

    def test_indices_length_checked(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            csr_sweep_matvec(csr.data, csr.indices[:2], csr.sweep_plan, np.ones(3))

    def test_non_plan_rejected(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            csr_sweep_matvec(csr.data, csr.indices, csr.indptr, np.ones(3))
