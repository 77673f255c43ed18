"""Unit tests for repro.serve.trace and the serve-sim CLI subcommand."""

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.serve import DoSRequest, GreenRequest, LDoSRequest, synthetic_trace


class TestSyntheticTrace:
    def test_deterministic(self):
        first = synthetic_trace(50, seed=3)
        second = synthetic_trace(50, seed=3)
        assert [r.tag for r in first] == [r.tag for r in second]
        assert [type(r) for r in first] == [type(r) for r in second]

    def test_seed_changes_trace(self):
        assert [r.tag for r in synthetic_trace(50, seed=0)] != [
            r.tag for r in synthetic_trace(50, seed=1)
        ]

    def test_repeat_bias_creates_repeats(self):
        trace = synthetic_trace(80, seed=0, repeat_bias=0.9)
        workloads = {r.tag.rsplit("/", 2)[0] for r in trace}
        assert len(workloads) < len(trace) / 4

    def test_kind_mix(self):
        trace = synthetic_trace(200, seed=0, green_fraction=0.3, ldos_fraction=0.2)
        kinds = {kind: sum(isinstance(r, cls) for r in trace)
                 for kind, cls in [("dos", DoSRequest), ("green", GreenRequest),
                                   ("ldos", LDoSRequest)]}
        assert kinds["dos"] > 0 and kinds["green"] > 0 and kinds["ldos"] > 0
        assert sum(kinds.values()) == 200

    def test_pure_dos_trace(self):
        trace = synthetic_trace(20, seed=0, green_fraction=0.0, ldos_fraction=0.0)
        assert all(isinstance(r, DoSRequest) for r in trace)

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthetic_trace(0)
        with pytest.raises(ValidationError):
            synthetic_trace(10, repeat_bias=1.5)
        with pytest.raises(ValidationError):
            synthetic_trace(10, green_fraction=0.7, ldos_fraction=0.7)


class TestServeSimCli:
    def test_runs_and_reports(self, capsys):
        code = main([
            "serve-sim", "-n", "30", "--window", "10",
            "--backends", "gpu-sim",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "modeled speedup" in out
        assert "replayed 30 requests" in out

    def test_multi_backend_pool(self, capsys):
        code = main([
            "serve-sim", "-n", "12", "--window", "0",
            "--backends", "gpu-sim,numpy",
        ])
        assert code == 0
        assert "gpu-sim, numpy" in capsys.readouterr().out

    def test_gateway_arm_replays_timed_trace(self, capsys):
        code = main([
            "serve-sim", "--trace", "gateway", "-n", "40", "--tenants", "2",
            "--backends", "gpu-sim",
        ])
        assert code == 0
        assert "replayed 40 timed requests" in capsys.readouterr().out

    def test_bad_backend_is_reported(self, capsys):
        code = main(["serve-sim", "-n", "5", "--backends", "warp-drive"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err
