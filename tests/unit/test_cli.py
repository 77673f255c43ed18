"""Unit tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import main


class TestDosCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "dos.csv"
        code = main([
            "dos", "--lattice", "chain:64", "-N", "32", "-R", "4",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "energy,density"
        assert len(lines) == 1 + 1024

    def test_stdout_csv(self, capsys):
        code = main(["dos", "--lattice", "chain:32", "-N", "16", "-R", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("energy,density")
        assert "integral=" in captured.err

    def test_gpu_backend(self, capsys):
        code = main([
            "dos", "--lattice", "cubic:3", "-N", "16", "-R", "4",
            "--backend", "gpu-sim", "--block-size", "32",
        ])
        assert code == 0
        assert "modeled" in capsys.readouterr().err

    def test_matrix_file_input(self, tmp_path, capsys):
        from repro.lattice import cubic, tight_binding_hamiltonian
        from repro.sparse import write_matrix_market

        path = tmp_path / "h.mtx"
        write_matrix_market(
            tight_binding_hamiltonian(cubic(3), format="csr"), str(path)
        )
        code = main(["dos", "--matrix", str(path), "-N", "16", "-R", "2"])
        assert code == 0

    def test_unknown_lattice_kind(self, capsys):
        code = main(["dos", "--lattice", "pyrochlore:4"])
        assert code == 2
        assert "unknown lattice kind" in capsys.readouterr().err


class TestTimeCommand:
    def test_paper_workload(self, capsys):
        code = main([
            "time", "--lattice", "cubic:10", "--storage", "dense",
            "-N", "512", "-R", "128", "-S", "14",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "D=1000" in out
        assert "speedup" in out

    def test_precision_flag(self, capsys):
        code = main([
            "time", "--lattice", "cubic:5", "--precision", "single",
        ])
        assert code == 0
        assert "precision=single" in capsys.readouterr().out

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_gpu_row_prices_the_gpu_sim_run(self, storage, monkeypatch):
        import repro.cli as cli
        from repro import KPMConfig, compute_dos
        from repro.lattice import cubic, tight_binding_hamiltonian

        tables = []
        monkeypatch.setattr(
            cli, "ascii_table", lambda columns, rows: tables.append(dict(rows)) or ""
        )
        code = main([
            "time", "--lattice", "cubic:6", "--storage", storage,
            "-N", "64", "-R", "4", "-S", "1", "--block-size", "64",
        ])
        assert code == 0
        config = KPMConfig(
            num_moments=64, num_random_vectors=4, num_realizations=1, block_size=64
        )
        run = compute_dos(
            tight_binding_hamiltonian(cubic(6), format=storage),
            config,
            backend="gpu-sim",
        )
        assert tables[0]["gpu (Tesla C2050)"] == pytest.approx(
            run.timing.modeled_seconds, rel=1e-12
        )


    def test_cpu_row_prices_the_cpu_model_run(self, tmp_path, monkeypatch):
        # a_00 = 1.5 shifts the spectrum, so rescaling stores the missing
        # diagonal: the run sweeps 192 entries where the file holds 129.
        import repro.cli as cli
        from repro import KPMConfig, compute_dos
        from repro.lattice import chain, tight_binding_hamiltonian
        from repro.sparse import CSRMatrix, read_matrix_market, write_matrix_market

        dense = tight_binding_hamiltonian(chain(64), format="csr").to_dense()
        dense[0, 0] = 1.5
        path = tmp_path / "shifted.mtx"
        write_matrix_market(CSRMatrix.from_dense(dense), str(path))
        tables = []
        monkeypatch.setattr(
            cli, "ascii_table", lambda columns, rows: tables.append(dict(rows)) or ""
        )
        code = main(["time", "--matrix", str(path), "-N", "64", "-R", "4", "-S", "1"])
        assert code == 0
        config = KPMConfig(num_moments=64, num_random_vectors=4, num_realizations=1)
        run = compute_dos(read_matrix_market(str(path)), config, backend="cpu-model")
        assert tables[0]["cpu (Core i7 930)"] == pytest.approx(
            run.timing.modeled_seconds, rel=1e-12
        )


class TestBenchCommand:
    def test_single_figure(self, capsys):
        code = main(["bench", "fig5", "--no-plots"])
        assert code == 0
        assert "fig5" in capsys.readouterr().out


class TestSanitizeCommand:
    def test_dos_workload_is_clean(self, capsys):
        code = main(["sanitize", "--workload", "dos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "SAN001" in out  # the full counter table prints every code
        assert "launches_checked" in out

    def test_out_writes_a_loadable_report(self, tmp_path, capsys):
        from repro.sanitize import load_sanitizer_report

        path = tmp_path / "report.json"
        code = main(["sanitize", "--workload", "dos", "--out", str(path)])
        assert code == 0
        report = load_sanitizer_report(path)
        assert report.clean
        assert report.workload["workloads"] == ["dos"]
        assert report.stats["launches_checked"] > 0

    def test_check_baseline_matches_itself(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        assert main(["sanitize", "--workload", "dos", "--out", str(path)]) == 0
        code = main(
            ["sanitize", "--workload", "dos", "--check-baseline", str(path)]
        )
        assert code == 0
        assert "matches baseline" in capsys.readouterr().err

    def test_check_baseline_detects_drift(self, tmp_path, capsys):
        from repro.sanitize import load_sanitizer_report, write_sanitizer_report

        path = tmp_path / "baseline.json"
        assert main(["sanitize", "--workload", "dos", "--out", str(path)]) == 0
        doctored = load_sanitizer_report(path)
        doctored.stats["launches_checked"] += 1
        write_sanitizer_report(doctored, path)
        code = main(
            ["sanitize", "--workload", "dos", "--check-baseline", str(path)]
        )
        assert code == 1
        assert "drifted from baseline" in capsys.readouterr().err

    def test_unknown_suppress_code_is_usage_error(self, capsys):
        code = main(["sanitize", "--workload", "dos", "--suppress", "SAN042"])
        assert code == 2
        assert "unknown sanitizer finding code" in capsys.readouterr().err


class TestArgumentValidation:
    def test_lattice_and_matrix_exclusive(self):
        with pytest.raises(SystemExit):
            main(["dos", "--lattice", "chain:8", "--matrix", "x.mtx"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
