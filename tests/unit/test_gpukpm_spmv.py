"""Unit tests for the per-format SpMV cost models (repro.gpukpm.spmv)."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gpu import TESLA_C2050
from repro.gpu.costmodel import gather_miss_fraction, row_imbalance_efficiency
from repro.gpukpm import (
    SPMV_FORMATS,
    VECTOR_WIDTHS,
    default_spmv_format,
    estimate_gpu_kpm_seconds,
    spmv_model_for,
    uniform_csr_model,
)
from repro.kpm import KPMConfig
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sparse import CSRMatrix, DenseOperator, structure_profile

_INDEX = 8


@pytest.fixture(scope="module")
def lattice_csr():
    return tight_binding_hamiltonian(cubic(3), format="csr")


class TestDenseModel:
    def test_formulas(self):
        model = spmv_model_for(np.eye(10), "dense")
        assert model.format == "dense"
        assert model.vector_width == 1
        assert model.flops_per_matvec == 200.0
        assert model.storage.matrix_bytes == 100 * 8
        assert model.read_bytes_per_matvec == 100 * 8 + 10 * 8
        assert model.storage.upload_bytes == (100 * 8,)

    def test_single_precision_halves_value_bytes(self):
        double = spmv_model_for(np.eye(10), "dense")
        single = spmv_model_for(np.eye(10), "dense", precision="single")
        assert single.storage.matrix_bytes == double.storage.matrix_bytes / 2

    def test_accepts_profile_without_structure_scan(self, lattice_csr):
        profile = structure_profile(lattice_csr)
        model = spmv_model_for(profile, "dense")
        assert model.storage.matrix_bytes == 27 * 27 * 8


class TestCsrModels:
    def test_scalar_csr_bytes_and_flops(self, lattice_csr):
        nnz, dim = lattice_csr.nnz_stored, 27
        model = spmv_model_for(lattice_csr, "csr")
        assert model.format == "csr"
        assert model.storage.operand_reads == nnz
        assert model.flops_per_matvec == 2.0 * nnz
        assert model.storage.matrix_bytes == nnz * (8 + _INDEX) + (dim + 1) * _INDEX
        assert model.storage.upload_bytes == (nnz * 8, nnz * _INDEX, (dim + 1) * _INDEX)

    def test_uniform_rows_have_full_thread_efficiency(self, lattice_csr):
        assert spmv_model_for(lattice_csr, "csr").thread_efficiency == 1.0

    def test_skewed_rows_pay_imbalance(self):
        dense = np.zeros((8, 8))
        dense[0, :] = 1.0  # one long row
        dense[1:, 0] = 1.0
        model = spmv_model_for(CSRMatrix.from_dense(dense), "csr")
        assert model.thread_efficiency < 1.0

    def test_vector_width_validation(self, lattice_csr):
        with pytest.raises(ValidationError, match="vector_width"):
            spmv_model_for(lattice_csr, "csr-vector", vector_width=3)

    def test_vector_model_adds_reduction_flops(self, lattice_csr):
        scalar = spmv_model_for(lattice_csr, "csr")
        vector = spmv_model_for(lattice_csr, "csr-vector", vector_width=4)
        assert vector.format == "csr-vector"
        assert vector.vector_width == 4
        assert vector.flops_per_matvec == (
            scalar.flops_per_matvec + 27 * math.ceil(math.log2(4))
        )
        # Same storage, so identical uploads and footprint.
        assert vector.storage == scalar.storage

    def test_wide_teams_on_short_rows_waste_lanes(self, lattice_csr):
        # cubic rows hold 7 entries: a 32-lane team mostly idles.
        narrow = spmv_model_for(lattice_csr, "csr-vector", vector_width=2)
        wide = spmv_model_for(lattice_csr, "csr-vector", vector_width=32)
        assert wide.thread_efficiency < narrow.thread_efficiency
        assert wide.thread_efficiency >= 1.0 / 32.0


class TestEllModel:
    def test_padded_slots_are_charged(self):
        dense = np.zeros((6, 6))
        dense[0, :] = 1.0  # one full row pads every other row to width 6
        dense[1:, 0] = 1.0
        csr = CSRMatrix.from_dense(dense)
        model = spmv_model_for(csr, "ell")
        slots = 6 * 6  # rows x max_row_nnz, padding included
        assert model.format == "ell"
        assert model.flops_per_matvec == 2.0 * slots
        assert model.storage.matrix_bytes == slots * (8 + _INDEX)
        assert model.storage.upload_bytes == (slots * 8, slots * _INDEX)
        assert model.storage.operand_reads == slots  # padding included
        assert csr.nnz_stored == 11

    def test_uniform_rows_beat_csr_on_reads(self, lattice_csr):
        # No padding and no indptr array: strictly fewer bytes.
        ell = spmv_model_for(lattice_csr, "ell")
        csr = spmv_model_for(lattice_csr, "csr")
        assert ell.storage.matrix_bytes < csr.storage.matrix_bytes
        assert ell.coalescing > csr.coalescing


class TestValidationAndDefaults:
    def test_unknown_format_rejected(self, lattice_csr):
        with pytest.raises(ValidationError, match="format"):
            spmv_model_for(lattice_csr, "coo")

    def test_unknown_precision_rejected(self, lattice_csr):
        with pytest.raises(ValidationError, match="precision"):
            spmv_model_for(lattice_csr, "csr", precision="half")

    def test_default_format_preserves_storage(self, lattice_csr):
        assert default_spmv_format(lattice_csr) == "csr"
        assert default_spmv_format(lattice_csr.to_ell()) == "ell"
        assert default_spmv_format(np.eye(4)) == "dense"
        assert default_spmv_format(DenseOperator(np.eye(4))) == "dense"

    def test_default_format_needs_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            default_spmv_format(42)

    def test_format_tables(self):
        assert SPMV_FORMATS == ("dense", "csr", "csr-vector", "ell")
        assert all(w & (w - 1) == 0 for w in VECTOR_WIDTHS)


class TestEstimatorParity:
    """Count-based and profiled models agree where their assumptions do."""

    def test_uniform_csr_equals_profiled_csr(self, lattice_csr):
        # The 3^3 cube: seven entries per row, columns inside the
        # gather's near window — no miss, no row imbalance.
        profiled = spmv_model_for(lattice_csr, "csr")
        counted = uniform_csr_model(27, lattice_csr.nnz_stored)
        assert counted == profiled

    def test_dense_model_matches_legacy_dense_path(self):
        config = KPMConfig(num_moments=16, num_random_vectors=4)
        legacy = estimate_gpu_kpm_seconds(TESLA_C2050, 64, config)
        model = estimate_gpu_kpm_seconds(
            TESLA_C2050, 64, config, spmv=spmv_model_for(np.zeros((64, 64)), "dense")
        )
        assert model == legacy


class TestCostModelHelpers:
    def test_gather_miss_fraction_banded_is_free(self):
        assert gather_miss_fraction(1000, 1.0) == 0.0

    def test_gather_miss_fraction_ramps_and_saturates(self):
        near = gather_miss_fraction(1000, 100.0)
        far = gather_miss_fraction(1000, 250.0)
        assert 0.0 < near < far <= 1.0
        assert gather_miss_fraction(1000, 10_000.0) == 1.0

    def test_gather_miss_fraction_validation(self):
        with pytest.raises(ValidationError):
            gather_miss_fraction(0, 1.0)
        with pytest.raises(ValidationError):
            gather_miss_fraction(10, -1.0)

    def test_row_imbalance_efficiency_bounds(self):
        assert row_imbalance_efficiency(6, 6) == 1.0
        assert row_imbalance_efficiency(0, 0) == 1.0
        skewed = row_imbalance_efficiency(100, 2)
        assert 0.0 < skewed < 0.05

    def test_row_imbalance_granularity_rounds_to_teams(self):
        # 6-entry rows on 8-lane teams take one pass either way.
        assert row_imbalance_efficiency(6, 3, granularity=8) == 1.0
        with pytest.raises(ValidationError):
            row_imbalance_efficiency(6, 3, granularity=0)
        with pytest.raises(ValidationError):
            row_imbalance_efficiency(2, 3)
