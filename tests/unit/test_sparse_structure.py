"""Unit tests for structural fingerprints (repro.sparse.fingerprint)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gpu import TESLA_C2050
from repro.gpukpm import GpuKPM
from repro.kpm import KPMConfig, rescale_operator
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sparse import (
    CSRMatrix,
    StructureProfile,
    as_format,
    structure_fingerprint,
    structure_profile,
)
from repro.sparse.csr import content_fingerprint


class TestStructureProfile:
    def test_chain_statistics(self):
        csr = tight_binding_hamiltonian(chain(5), format="csr")
        profile = structure_profile(csr)
        assert profile.dimension == 5
        assert profile.n_cols == 5
        assert profile.nnz == csr.nnz_stored == 15
        assert profile.density == pytest.approx(15.0 / 25.0)
        # Periodic chain: every site stores onsite + 2 neighbours.
        assert profile.row_nnz_min == profile.row_nnz_max == 3
        assert profile.row_nnz_mean == 3.0
        assert profile.row_nnz_var == 0.0
        # The wrap-around bond spans the whole chain.
        assert profile.bandwidth == 4
        # 5 diagonal zeros, 8 unit offsets, 2 wrap offsets of 4.
        assert profile.mean_abs_offset == pytest.approx(16.0 / 15.0)
        assert profile.dtype == "float64"

    def test_row_nnz_min_is_true_minimum(self):
        # Regression: np.min(initial=0) treats 0 as an extra element and
        # always reported 0 for matrices with no empty rows.
        dense = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        profile = structure_profile(CSRMatrix.from_dense(dense))
        assert profile.row_nnz_min == 1
        assert profile.row_nnz_max == 3

    def test_uniform_lattice_has_zero_variance(self):
        profile = structure_profile(
            tight_binding_hamiltonian(cubic(3), format="csr")
        )
        assert profile.row_nnz_min == profile.row_nnz_max == 7
        assert profile.row_nnz_var == 0.0

    def test_all_input_kinds_agree(self):
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        via_csr = structure_profile(csr)
        via_ell = structure_profile(csr.to_ell())
        via_coo = structure_profile(csr.to_coo())
        assert via_csr == via_ell == via_coo

    def test_raw_array_profiles_its_nonzero_pattern(self):
        # A raw array profiles what a sparse conversion would store, so
        # it matches CSRMatrix.from_dense (explicit zeros dropped).
        dense = tight_binding_hamiltonian(cubic(3), format="csr").to_dense()
        assert structure_profile(dense) == structure_profile(
            CSRMatrix.from_dense(dense)
        )

    def test_rejects_unprofilable_operator(self):
        with pytest.raises(ValidationError, match="cannot profile"):
            structure_profile(object())

    def test_as_dict_round_trips_fields(self):
        profile = structure_profile(
            tight_binding_hamiltonian(chain(4), format="csr")
        )
        data = profile.as_dict()
        assert StructureProfile(**data) == profile


class TestProfiledOncePerPattern:
    """A CSR or ELL pattern is read-only, so it is profiled once."""

    CONFIG = KPMConfig(num_moments=16, num_random_vectors=4, block_size=32)

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_repeated_profiles_and_runs_scan_once(self, fmt, profile_scans):
        scaled, _ = rescale_operator(
            tight_binding_hamiltonian(cubic(4), format="csr")
        )
        op = as_format(scaled, fmt)
        first = structure_profile(op)
        assert structure_profile(op) is first
        kpm = GpuKPM(TESLA_C2050)
        for _ in range(2):
            kpm.compute_moments(op, self.CONFIG)
            kpm.estimate_modeled_seconds(op, self.CONFIG)
        assert profile_scans == [op.shape]
        # The kept profile is the one a fresh copy of the pattern gives.
        copy = CSRMatrix(scaled.indptr, scaled.indices, scaled.data, scaled.shape)
        assert structure_profile(as_format(copy, fmt)) == first

    def test_every_operator_keeps_its_own_profile(self, profile_scans):
        a = tight_binding_hamiltonian(chain(6), format="csr")
        b = tight_binding_hamiltonian(chain(7), format="csr")
        assert structure_profile(a) != structure_profile(b)
        assert structure_profile(a).dimension == 6
        assert len(profile_scans) == 2


class TestStructureFingerprint:
    def test_value_perturbation_keeps_structure(self):
        dense = tight_binding_hamiltonian(chain(6), format="csr").to_dense()
        perturbed = dense.copy()
        perturbed[0, 1] *= 2.0
        a, b = CSRMatrix.from_dense(dense), CSRMatrix.from_dense(perturbed)
        assert structure_fingerprint(a) == structure_fingerprint(b)
        assert content_fingerprint(
            "csr", a.shape, a.indptr, a.indices, a.data
        ) != content_fingerprint("csr", b.shape, b.indptr, b.indices, b.data)

    def test_pattern_change_changes_digest(self):
        a = tight_binding_hamiltonian(chain(6), format="csr")
        b = tight_binding_hamiltonian(chain(7), format="csr")
        assert structure_fingerprint(a) != structure_fingerprint(b)

    def test_accepts_precomputed_profile(self):
        csr = tight_binding_hamiltonian(chain(4), format="csr")
        assert structure_fingerprint(structure_profile(csr)) == (
            structure_fingerprint(csr)
        )

    def test_stable_across_calls(self):
        csr = tight_binding_hamiltonian(chain(4), format="csr")
        assert structure_fingerprint(csr) == structure_fingerprint(csr)

    def test_rejects_none(self):
        with pytest.raises(ValidationError):
            structure_fingerprint(None)
