"""Unit tests for the per-matrix kernel autotuner (repro.tune)."""

import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gpu import TESLA_C2050
from repro.kpm import KPMConfig, rescale_operator
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.obs import Tracer
from repro.sparse import CSRMatrix, DenseOperator, ELLMatrix, structure_fingerprint
from repro.tune import (
    DEFAULT_BLOCK_CANDIDATES,
    Autotuner,
    TuningCache,
    TuningChoice,
    load_tuning_cache,
    tuning_key,
    write_tuning_cache,
)
from repro.tune.cache import SCHEMA_VERSION
from repro.tune.cli import main as tune_main


#: The dense-only grid of the block-size and multi-GPU ablations.
DENSE_ONLY = {"formats": ("dense",), "block_candidates": (8, 16, 32, 64, 128, 256, 512, 1024)}
GRIDS = pytest.mark.parametrize("grid", [{}, DENSE_ONLY], ids=["default", "dense-only"])


def make_choice(**overrides):
    base = dict(
        format="ell", block_size=128, vector_width=1, modeled_seconds=0.25
    )
    base.update(overrides)
    return TuningChoice(**base)


class TestTuningChoice:
    def test_validation(self):
        with pytest.raises(ValidationError, match="format"):
            make_choice(format="coo")
        with pytest.raises(ValidationError):
            make_choice(block_size=100)
        with pytest.raises(ValidationError):
            make_choice(vector_width=3)
        with pytest.raises(ValidationError):
            make_choice(modeled_seconds=-1.0)
        with pytest.raises(ValidationError):
            make_choice(probed="yes")

    def test_dict_round_trip(self):
        choice = make_choice(format="csr-vector", vector_width=8, probed=True)
        assert TuningChoice.from_dict(choice.as_dict()) == choice


class TestTuningCache:
    def test_put_get_contains_len(self):
        cache = TuningCache()
        assert cache.get("k") is None
        cache.put("k", make_choice())
        assert "k" in cache
        assert len(cache) == 1
        assert cache.get("k") == make_choice()

    def test_put_validates(self):
        cache = TuningCache()
        with pytest.raises(ValidationError):
            cache.put("", make_choice())
        with pytest.raises(ValidationError):
            cache.put("k", {"format": "ell"})

    def test_json_bytes_independent_of_insertion_order(self):
        a, b = TuningCache(), TuningCache()
        a.put("x", make_choice())
        a.put("y", make_choice(format="csr"))
        b.put("y", make_choice(format="csr"))
        b.put("x", make_choice())
        assert a.to_json() == b.to_json()
        assert a.fingerprint() == b.fingerprint()

    def test_keys_and_items_sorted(self):
        cache = TuningCache()
        cache.put("zz", make_choice())
        cache.put("aa", make_choice())
        assert cache.keys() == ("aa", "zz")
        assert [key for key, _ in cache.items()] == ["aa", "zz"]

    def test_schema_embedded_and_checked(self):
        cache = TuningCache()
        cache.put("k", make_choice())
        data = cache.to_dict()
        assert data["schema"] == SCHEMA_VERSION
        restored = TuningCache.from_dict(json.loads(cache.to_json()))
        assert restored.to_json() == cache.to_json()
        data["schema"] = "repro.tune/0"
        with pytest.raises(ValidationError, match="schema"):
            TuningCache.from_dict(data)

    def test_file_round_trip_is_byte_stable(self, tmp_path):
        cache = TuningCache()
        cache.put("k", make_choice(probed=True))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_tuning_cache(cache, first)
        write_tuning_cache(load_tuning_cache(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestTuningKey:
    def test_contents(self):
        csr = tight_binding_hamiltonian(chain(8), format="csr")
        digest = structure_fingerprint(csr)
        config = KPMConfig(num_moments=64, num_random_vectors=4, precision="single")
        key = tuning_key(digest, config, TESLA_C2050)
        assert digest in key
        assert TESLA_C2050.name in key
        assert "N=64" in key
        assert "V=4" in key
        assert "single" in key

    def test_block_size_does_not_fragment_the_key(self):
        digest = "d" * 64
        a = tuning_key(digest, KPMConfig(block_size=64), TESLA_C2050)
        b = tuning_key(digest, KPMConfig(block_size=512), TESLA_C2050)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            tuning_key("", KPMConfig(), TESLA_C2050)
        with pytest.raises(ValidationError):
            tuning_key("d", {}, TESLA_C2050)
        with pytest.raises(ValidationError):
            tuning_key("d", KPMConfig(), "tesla")


class TestAutotunerConstruction:
    def test_candidate_grid_validation(self):
        with pytest.raises(ValidationError):
            Autotuner(formats=("coo",))
        with pytest.raises(ValidationError):
            Autotuner(formats=())
        with pytest.raises(ValidationError):
            Autotuner(block_candidates=(48,))
        with pytest.raises(ValidationError):
            Autotuner(block_candidates=())
        with pytest.raises(ValidationError):
            Autotuner(vector_widths=(3,))
        with pytest.raises(ValidationError):
            Autotuner(spec="tesla")

    def test_counters_start_at_zero(self):
        assert Autotuner().counters() == {
            "tune.choose.hits": 0,
            "tune.choose.misses": 0,
            "tune.probe.runs": 0,
        }


class TestSweep:
    @pytest.fixture(scope="class")
    def hamiltonian(self):
        return tight_binding_hamiltonian(cubic(4), format="csr")

    def test_deterministic_and_sorted(self, hamiltonian):
        tuner = Autotuner()
        config = KPMConfig(num_moments=64, num_random_vectors=8)
        first = tuner.sweep(hamiltonian, config)
        second = tuner.sweep(hamiltonian, config)
        assert first == second
        seconds = [p.modeled_seconds for p in first]
        assert seconds == sorted(seconds)

    def test_covers_every_feasible_candidate(self, hamiltonian):
        tuner = Autotuner()
        points = tuner.sweep(hamiltonian, KPMConfig())
        formats = {p.format for p in points}
        assert formats == {"dense", "csr", "csr-vector", "ell"}
        blocks = {p.block_size for p in points}
        assert blocks == set(
            b
            for b in DEFAULT_BLOCK_CANDIDATES
            if b <= TESLA_C2050.max_threads_per_block
        )

    def test_sparse_beats_dense_on_lattice(self, hamiltonian):
        best = Autotuner().sweep(hamiltonian, KPMConfig(num_moments=256))[0]
        assert best.format != "dense"

    def test_config_validation(self, hamiltonian):
        with pytest.raises(ValidationError):
            Autotuner().sweep(hamiltonian, {"num_moments": 8})

    @GRIDS
    def test_best_is_the_minimum(self, hamiltonian, grid):
        config = KPMConfig(num_random_vectors=64, num_realizations=1, num_moments=32)
        points = Autotuner(**grid).sweep(hamiltonian, config)
        assert points[0].modeled_seconds == min(p.modeled_seconds for p in points)

    @GRIDS
    def test_oversized_candidates_skipped(self, hamiltonian, grid):
        tuner = Autotuner(**{**grid, "block_candidates": (128, 4096)})
        config = KPMConfig(num_random_vectors=8, num_realizations=1, num_moments=8)
        assert {p.block_size for p in tuner.sweep(hamiltonian, config)} == {128}

    @GRIDS
    def test_no_feasible_candidate_raises(self, hamiltonian, grid):
        tuner = Autotuner(**{**grid, "block_candidates": (2048,)})
        with pytest.raises(ValidationError, match="no feasible"):
            tuner.sweep(hamiltonian, KPMConfig())

    @GRIDS
    def test_wide_blocks_penalized_for_small_vectors(self, grid):
        # D=128: BLOCK_SIZE=512 idles 3/4 of each block in every format,
        # and the dense sweep, whose matvec dominates, pays over 2x.
        operator = tight_binding_hamiltonian(chain(128), format="csr")
        tuner = Autotuner(**{**grid, "block_candidates": (128, 512)})
        config = KPMConfig(num_random_vectors=1792, num_realizations=1, num_moments=64)
        seconds = {
            (p.format, p.vector_width, p.block_size): p.modeled_seconds
            for p in tuner.sweep(operator, config)
        }
        assert {fmt for fmt, _, _ in seconds} >= {"dense"}
        for (fmt, width, block), wide in seconds.items():
            if block == 512:
                narrow = seconds[(fmt, width, 128)]
                assert wide > (2.0 if fmt == "dense" else 1.0) * narrow


class TestChoose:
    @pytest.fixture()
    def scaled(self):
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        scaled, _ = rescale_operator(csr)
        return scaled

    def test_miss_then_hit(self, scaled):
        tuner = Autotuner()
        config = KPMConfig(num_moments=32, num_random_vectors=4)
        first = tuner.choose(scaled, config)
        second = tuner.choose(scaled, config)
        assert first == second
        assert tuner.misses == 1
        assert tuner.hits == 1

    def test_same_structure_different_values_share_entry(self, scaled):
        tuner = Autotuner()
        config = KPMConfig(num_moments=32, num_random_vectors=4)
        tuner.choose(scaled, config)
        perturbed = scaled.scale_shift(0.5, 0.1)
        tuner.choose(perturbed, config)
        assert (tuner.misses, tuner.hits) == (1, 1)

    def test_workload_shape_keys_separately(self, scaled):
        tuner = Autotuner()
        tuner.choose(scaled, KPMConfig(num_moments=32))
        tuner.choose(scaled, KPMConfig(num_moments=64))
        assert tuner.misses == 2
        assert len(tuner.cache) == 2

    def test_block_size_does_not_key(self, scaled):
        tuner = Autotuner()
        tuner.choose(scaled, KPMConfig(num_moments=32, block_size=64))
        tuner.choose(scaled, KPMConfig(num_moments=32, block_size=512))
        assert (tuner.misses, tuner.hits) == (1, 1)

    def test_records_tune_spans(self, scaled):
        tracer = Tracer()
        tuner = Autotuner()
        config = KPMConfig(num_moments=32)
        with tracer.activate():
            tuner.choose(scaled, config)
            tuner.choose(scaled, config)
        spans = [s for s in tracer.roots if s.label == "tune.choose"]
        assert [s.attributes["cache"] for s in spans] == ["miss", "hit"]
        assert spans[0].attributes["format"] == spans[1].attributes["format"]

    def test_probe_verifies_and_marks_choice(self, scaled):
        tuner = Autotuner(probe=True)
        choice = tuner.choose(scaled, KPMConfig(num_moments=16))
        assert choice.probed
        assert tuner.probes == 1
        # The probe replaces the analytic score with the executed modeled
        # time; the two agree to PROBE_REL_TOL by the estimator contract.
        assert choice.modeled_seconds > 0

    def test_probe_does_not_advance_callers_clock(self, scaled):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("caller"):
                Autotuner(probe=True).choose(scaled, KPMConfig(num_moments=16))
        # The probe executed a full pipeline, but on a private tracer:
        # the caller's modeled clock never moved.
        assert tracer.clock == 0.0


class TestPrepareOperator:
    def test_conversions(self):
        csr = tight_binding_hamiltonian(chain(6), format="csr")
        tuner = Autotuner()
        ell = tuner.prepare_operator(csr, make_choice(format="ell"))
        assert isinstance(ell, ELLMatrix)
        back = tuner.prepare_operator(ell, make_choice(format="csr"))
        assert isinstance(back, CSRMatrix)
        dense = tuner.prepare_operator(csr, make_choice(format="dense"))
        assert isinstance(dense, np.ndarray)
        np.testing.assert_array_equal(dense, csr.to_dense())

    @pytest.mark.parametrize("storage", ["operator", "ndarray"])
    @pytest.mark.parametrize(
        "fmt, stored", [("csr", CSRMatrix), ("csr-vector", CSRMatrix), ("ell", ELLMatrix)]
    )
    def test_dense_storage_converts(self, storage, fmt, stored):
        dense = tight_binding_hamiltonian(chain(6), format="csr").to_dense()
        operator = DenseOperator(dense) if storage == "operator" else dense
        out = Autotuner().prepare_operator(operator, make_choice(format=fmt))
        assert isinstance(out, stored)
        np.testing.assert_array_equal(out.to_dense(), dense)

    def test_no_op_when_storage_matches(self):
        csr = tight_binding_hamiltonian(chain(6), format="csr")
        tuner = Autotuner()
        assert tuner.prepare_operator(csr, make_choice(format="csr")) is csr
        ell = csr.to_ell()
        assert tuner.prepare_operator(ell, make_choice(format="ell")) is ell

    def test_choice_validation(self):
        with pytest.raises(ValidationError):
            Autotuner().prepare_operator(np.eye(3), {"format": "ell"})


class TestTuneCli:
    def test_inspect_prints_profile_and_formats(self, capsys):
        assert tune_main(["inspect", "--lattice", "chain", "-L", "16"]) == 0
        out = capsys.readouterr().out
        assert "structure fingerprint:" in out
        assert "row_nnz_max" in out
        for fmt in ("dense", "csr", "csr-vector", "ell"):
            assert fmt in out

    def test_sweep_ranks_candidates(self, capsys):
        assert (
            tune_main(
                ["sweep", "--lattice", "cubic", "-L", "4", "--top", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vs dense" in out
        # Header plus exactly --top rows.
        assert len(out.strip().splitlines()) == 4

    def test_cache_miss_then_hit_round_trip(self, tmp_path, capsys):
        cache_file = tmp_path / "tuning.json"
        argv = ["cache", "--cache", str(cache_file), "--lattice", "cubic", "-L", "3"]
        assert tune_main(argv) == 0
        first = capsys.readouterr().out
        assert first.startswith("miss:")
        bytes_after_first = cache_file.read_bytes()
        assert tune_main(argv) == 0
        second = capsys.readouterr().out
        assert second.startswith("hit:")
        # A hit rewrites the identical cache file byte-for-byte.
        assert cache_file.read_bytes() == bytes_after_first

    def test_cache_show_lists_entries(self, tmp_path, capsys):
        cache_file = tmp_path / "tuning.json"
        tune_main(["cache", "--cache", str(cache_file), "--lattice", "chain", "-L", "8"])
        capsys.readouterr()
        assert tune_main(["cache", "--cache", str(cache_file), "--show"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "sha256" in out

    def test_registered_under_repro_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["tune", "inspect", "--lattice", "chain", "-L", "8"]) == 0
        assert "structure fingerprint:" in capsys.readouterr().out

    def test_bad_argv_type_rejected(self):
        with pytest.raises(ValidationError):
            tune_main("inspect")
