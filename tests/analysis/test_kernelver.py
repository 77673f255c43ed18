"""The static kernel verifier end to end: proofs, mutants, certificates.

Everything here is *static* — kernels are parsed and abstractly
interpreted, never imported or executed.  The two mutant tests seed the
paper's classic device bugs (an off-by-one store and a dropped
block-ownership index) into the real recursion kernel's source text and
require the verifier to refuse the proof.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis
from repro.analysis.cli import main
from repro.analysis.kernelver import (
    CERTIFICATE_SCHEMA,
    build_certificate,
    find_kernel_defs,
    interpret_mode,
    render_certificate,
    verify_module,
)
from repro.analysis.kernelver.interp import MATRIX_FIELDS
from repro.obs.sanitize_run import cross_check_certificate, sanitized_run

REPO = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO / "src" / "repro"
KERNELS_PY = SRC_REPRO / "gpukpm" / "kernels.py"
CONDUCTIVITY_PY = SRC_REPRO / "gpukpm" / "conductivity_gpu.py"
COMMITTED_CERT = REPO / "kernelver-cert.json"


def _verify_source(text: str):
    return verify_module(ast.parse(text))


def _report_for(reports, kernel_name):
    for report in reports:
        if report.kernel_name == kernel_name:
            return report
    raise AssertionError(f"no kernel {kernel_name!r} in {reports}")


class TestShippedKernelsProve:
    @pytest.mark.parametrize(
        "path, kernels",
        [
            (
                KERNELS_PY,
                [
                    "kpm_recursion",
                    "reduce_moments",
                ],
            ),
            (CONDUCTIVITY_PY, ["kpm_conductivity", "reduce_conductivity"]),
        ],
    )
    def test_all_block_programs_proven(self, path, kernels):
        reports = _verify_source(path.read_text(encoding="utf-8"))
        by_name = {report.kernel_name: report for report in reports}
        assert sorted(by_name) == sorted(kernels)
        for name, report in by_name.items():
            assert report.status == "proven", (
                name,
                report.problems,
                report.issues(),
            )

    def test_recursion_kernel_proves_all_four_modes(self):
        reports = _verify_source(KERNELS_PY.read_text(encoding="utf-8"))
        recursion = _report_for(reports, "kpm_recursion")
        assert [mode.mode_name for mode in recursion.modes] == [
            "cold",
            "cold-capture",
            "resume",
            "resume-capture",
        ]
        assert all(not mode.issues for mode in recursion.modes)


class TestSeededMutants:
    """The verifier must reject classic device bugs without executing."""

    def test_off_by_one_store_is_caught(self):
        original = KERNELS_PY.read_text(encoding="utf-8")
        target = "mu_tilde.data[block_vectors] = moments"
        assert target in original
        mutated = original.replace(
            target, "mu_tilde.data[block_vectors + 1] = moments"
        )
        recursion = _report_for(_verify_source(mutated), "kpm_recursion")
        assert recursion.status == "failed"
        bounds = recursion.issues("RA016")
        assert bounds, "the out-of-bounds store produced no RA016 issue"
        assert any(
            issue.certain and "exceeds extent" in issue.message
            for _, issue in bounds
        )

    def test_dropped_block_ownership_is_caught(self):
        original = KERNELS_PY.read_text(encoding="utf-8")
        target = "mu_tilde.data[block_vectors] = moments"
        assert target in original
        mutated = original.replace(target, "mu_tilde.data[0] = moments")
        recursion = _report_for(_verify_source(mutated), "kpm_recursion")
        assert recursion.status == "failed"
        races = recursion.issues("RA017")
        assert any(issue.certain for _, issue in races), (
            "every block storing into mu_tilde row 0 must be a *certain* "
            "write/write violation"
        )
        assert any(
            "overlaps across blocks" in issue.message for _, issue in races
        )

    def test_mutants_detected_through_the_rule_gate(self, tmp_path):
        # The same mutants through run_analysis: the public gate fails.
        mutant_dir = tmp_path / "gpukpm"
        mutant_dir.mkdir()
        original = KERNELS_PY.read_text(encoding="utf-8")
        (mutant_dir / "kernels.py").write_text(
            original.replace(
                "mu_tilde.data[block_vectors] = moments",
                "mu_tilde.data[0] = moments",
            ),
            encoding="utf-8",
        )
        config = AnalysisConfig(select=("RA017",))
        report = run_analysis([tmp_path], config)
        assert report.failed
        assert all(f.rule == "RA017" for f in report.findings)


LOOP_SCOPE_KERNEL = """
from repro.gpu.contracts import ArraySpec, KernelContract
from repro.gpu.kernel import kernel


@kernel(
    "loop_scope",
    contract=KernelContract(
        symbols={"n": (1, None)},
        arrays={"out": ArraySpec(extent=("n",), role="out")},
    ),
)
def loop_scope_kernel(ctx, out, n):
    if ctx.linear_block_id != 0:
        return
    for k in range(1, n):
        out.data[k] = 1.0
    out.data[0] = 0.0
"""


class TestLoopScope:
    """A loop symbol's bounds hold inside the loop body only."""

    def _writes(self, source):
        tree = ast.parse(source)
        [kernel_def] = find_kernel_defs(tree)
        [mode] = kernel_def.contract.modes
        result = interpret_mode(kernel_def.func, kernel_def.contract, mode, tree)
        return {access.line: access for access in result.accesses if access.kind == "write"}

    def test_post_loop_access_carries_no_loop_symbol(self):
        writes = self._writes(LOOP_SCOPE_KERNEL)
        lines = LOOP_SCOPE_KERNEL.splitlines()
        in_loop = lines.index("        out.data[k] = 1.0") + 1
        after = lines.index("    out.data[0] = 0.0") + 1
        assert f"k#{in_loop - 1}" in writes[in_loop].domain.symbols()
        assert not any("#" in name for name in writes[after].domain.symbols())

    def test_recursion_moment_store_is_outside_every_loop(self):
        tree = ast.parse(KERNELS_PY.read_text(encoding="utf-8"))
        kernel_def = next(
            k for k in find_kernel_defs(tree) if k.kernel_name == "kpm_recursion"
        )
        for mode in kernel_def.contract.modes:
            result = interpret_mode(kernel_def.func, kernel_def.contract, mode, tree)
            stores = [
                access
                for access in result.accesses
                if access.param == "mu_tilde" and access.kind == "write"
            ]
            assert len(stores) == 1, mode.name
            assert not any("#" in name for name in stores[0].domain.symbols())


class TestStepCall:
    def test_bound_product_handed_to_the_step_reads_the_matrix(self):
        # The kernel hands matrix.matmat to the host step; each mode must
        # still record a read of every storage buffer of the matrix.
        tree = ast.parse(KERNELS_PY.read_text(encoding="utf-8"))
        kernel_def = next(
            k for k in find_kernel_defs(tree) if k.kernel_name == "kpm_recursion"
        )
        for mode in kernel_def.contract.modes:
            result = interpret_mode(kernel_def.func, kernel_def.contract, mode, tree)
            reads = {
                access.field
                for access in result.accesses
                if access.param == "matrix" and access.kind == "read"
            }
            assert reads == set(MATRIX_FIELDS), mode.name
            assert not result.problems, mode.name


class TestCertificate:
    def test_committed_certificate_is_byte_identical(self):
        config = AnalysisConfig()
        certificate = build_certificate([SRC_REPRO], config)
        assert render_certificate(certificate) == COMMITTED_CERT.read_text(
            encoding="utf-8"
        )

    def test_build_is_deterministic(self):
        config = AnalysisConfig()
        first = render_certificate(build_certificate([SRC_REPRO], config))
        second = render_certificate(build_certificate([SRC_REPRO], config))
        assert first == second

    def test_certificate_shape(self):
        certificate = build_certificate([SRC_REPRO], AnalysisConfig())
        assert certificate["schema"] == CERTIFICATE_SCHEMA
        assert certificate["fingerprint"].startswith("sha256:")
        kernels = certificate["kernels"]
        assert len(kernels) == 4
        assert all(entry["status"] == "proven" for entry in kernels)
        recursion = next(
            entry for entry in kernels if entry["kernel"] == "kpm_recursion"
        )
        assert sorted(recursion["modes"]) == [
            "cold",
            "cold-capture",
            "resume",
            "resume-capture",
        ]
        for mode in recursion["modes"].values():
            assert mode["rules"] == {
                "RA016": "proven",
                "RA017": "proven",
                "RA019": "proven",
            }

    def test_certificate_out_cli(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        status = main([str(SRC_REPRO), "--certificate-out", str(out)])
        assert status == 0
        assert out.read_text(encoding="utf-8") == COMMITTED_CERT.read_text(
            encoding="utf-8"
        )

    def test_drift_detected_against_doctored_certificate(self, tmp_path):
        doctored = json.loads(COMMITTED_CERT.read_text(encoding="utf-8"))
        doctored["kernels"][0]["status"] = "sanitize"
        cert_path = tmp_path / "kernelver-cert.json"
        cert_path.write_text(
            json.dumps(doctored, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        config = AnalysisConfig(
            select=("RA020",), certificate=str(cert_path)
        )
        report = run_analysis([SRC_REPRO], config)
        assert report.failed
        assert any("drifted" in f.message for f in report.findings)


class TestCrossCheck:
    """cross_check_certificate: the dynamic half of RA020."""

    @staticmethod
    def _certificate(kernels):
        return {"schema": CERTIFICATE_SCHEMA, "kernels": kernels}

    @staticmethod
    def _report(workloads=("dos",), launches=None, findings=()):
        from repro.sanitize import SanitizerReport

        return SanitizerReport(
            label="test",
            workload={"workloads": list(workloads)},
            findings=list(findings),
            stats={"kernel_launches": dict(launches or {})},
        )

    def test_all_proven_certificate_passes_trivially(self):
        cert = self._certificate([{"kernel": "k", "status": "proven"}])
        assert cross_check_certificate(self._report(), cert) == []

    def test_wrong_schema_is_one_problem(self):
        problems = cross_check_certificate(self._report(), {"schema": "x"})
        assert len(problems) == 1
        assert "schema" in problems[0]

    def test_discharged_obligation_passes(self):
        cert = self._certificate(
            [{"kernel": "k", "status": "sanitize", "sanitize_workload": "dos"}]
        )
        report = self._report(workloads=("dos",), launches={"k": 3})
        assert cross_check_certificate(report, cert) == []

    def test_unknown_workload_reported(self):
        cert = self._certificate(
            [
                {
                    "kernel": "k",
                    "status": "sanitize",
                    "sanitize_workload": "warmup",
                }
            ]
        )
        problems = cross_check_certificate(self._report(), cert)
        assert any("unknown sanitize workload" in p for p in problems)

    def test_workload_not_run_reported(self):
        cert = self._certificate(
            [
                {
                    "kernel": "k",
                    "status": "sanitize",
                    "sanitize_workload": "serve",
                }
            ]
        )
        report = self._report(workloads=("dos",), launches={"k": 1})
        problems = cross_check_certificate(report, cert)
        assert any("did not execute" in p for p in problems)

    def test_never_launched_reported(self):
        cert = self._certificate(
            [{"kernel": "k", "status": "sanitize", "sanitize_workload": "dos"}]
        )
        report = self._report(workloads=("dos",), launches={})
        problems = cross_check_certificate(report, cert)
        assert any("never launched" in p for p in problems)

    def test_failed_kernel_reported(self):
        cert = self._certificate([{"kernel": "k", "status": "failed"}])
        problems = cross_check_certificate(self._report(), cert)
        assert any("'failed'" in p for p in problems)

    def test_committed_certificate_against_the_pinned_dos_run(self):
        # The real artifact: all kernels proven, so any sanitized run
        # (even a sub-selection) discharges it.
        certificate = json.loads(COMMITTED_CERT.read_text(encoding="utf-8"))
        report = sanitized_run(workloads=("dos",))
        assert cross_check_certificate(report, certificate) == []
