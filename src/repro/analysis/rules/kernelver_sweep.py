"""RA018 — canonical-sweep conformance of kernel matrix products.

Every matrix product in this codebase must run the canonical
contraction order of :mod:`repro.sparse.sweep` (``matvec`` or
``matmat`` on a ``DeviceMatrix``, or one of the ``*_sweep_*`` helpers),
because bit-identical replay across storage formats and program flavors
depends on one accumulation order.  A kernel that contracts the *storage
buffers* of a matrix parameter through ``@`` / ``np.dot`` / friends is
re-deriving the product ad hoc — numerically plausible, replay-hostile.

The check is a syntactic taint analysis: matrix parameters (declared by
a contract ``MatrixSpec`` or annotated ``DeviceMatrix``) taint the
buffers unpacked from them (``.csr`` / ``.ell`` / ``.dense`` / ``.data``
/ subscripts / ``np.asarray``), and a dot-family operation on tainted
storage is a finding.  Elementwise arithmetic (``*``, ``+=``) on
tainted storage is untouched, the ``*_sweep_*`` helpers may consume it,
and ``matvec``/``matmat`` results are clean host arrays.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig, match_path
from repro.analysis.core import Finding, Rule, SourceModule
from repro.analysis.kernelver.extract import find_kernel_defs

__all__ = ["CanonicalSweepRule"]

#: numpy-level contraction callables that bypass the canonical sweep.
_DOT_FUNCS = frozenset(
    {"dot", "matmul", "einsum", "tensordot", "vdot", "inner", "outer"}
)

#: Callees allowed to consume matrix storage (the canonical entry points).
_ALLOWED_CALLEES = frozenset(
    {
        "matvec",
        "matmat",
        "dense_sweep_matvec",
        "dense_sweep_matmat",
        "csr_sweep_matvec",
        "csr_sweep_matmat",
        "ell_sweep_matvec",
        "ell_sweep_matmat",
        "build_sweep_plan",
    }
)


def _matrix_params(func: ast.FunctionDef, contract) -> set:
    tainted = set()
    if contract is not None:
        tainted.update(dict(contract.matrices))
    for arg in [*func.args.args, *func.args.kwonlyargs]:
        annotation = arg.annotation
        name = None
        if isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            name = annotation.attr
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name = annotation.value
        if name == "DeviceMatrix":
            tainted.add(arg.arg)
    return tainted


def _expr_tainted(node: ast.AST, tainted: set) -> bool:
    """Does this expression carry matrix storage?"""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Attribute):
        return _expr_tainted(node.value, tainted)
    if isinstance(node, ast.Subscript):
        return _expr_tainted(node.value, tainted)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_expr_tainted(item, tainted) for item in node.elts)
    if isinstance(node, ast.BinOp):
        # Index arithmetic on pointers (starts + k) keeps the taint.
        return _expr_tainted(node.left, tainted) or _expr_tainted(
            node.right, tainted
        )
    if isinstance(node, ast.Compare):
        return _expr_tainted(node.left, tainted) or any(
            _expr_tainted(comp, tainted) for comp in node.comparators
        )
    if isinstance(node, ast.Call):
        callee = node.func
        callee_name = (
            callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
        )
        if callee_name in _ALLOWED_CALLEES:
            return False  # canonical products return clean host vectors
        if callee_name == "asarray":
            return any(_expr_tainted(arg, tainted) for arg in node.args)
        return False
    return False


def _collect_taint(func: ast.FunctionDef, tainted: set) -> None:
    """Propagate storage taint through assignments to a fixpoint."""
    for _ in range(4):
        grew = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not _expr_tainted(node.value, tainted):
                continue
            for target in node.targets:
                names = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for item in names:
                    if isinstance(item, ast.Name) and item.id not in tainted:
                        tainted.add(item.id)
                        grew = True
        if not grew:
            return


def _callee_label(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        base = getattr(func.value, "id", None)
        return f"{base}.{func.attr}" if base else func.attr
    return getattr(func, "id", "<call>")


class CanonicalSweepRule(Rule):
    """RA018: matrix products in kernels route through the canonical sweep."""

    id = "RA018"
    name = "kernel-canonical-sweep"
    description = (
        "@kernel block programs must contract matrix storage through "
        "DeviceMatrix.matvec/matmat / repro.sparse.sweep, never ad-hoc "
        "dot/matmul on the raw buffers"
    )
    explain = (
        "Bit-identical replay across storage formats (dense, CSR, ELL) "
        "and program flavors (scalar vs warp-vector) holds because every "
        "matrix product runs one canonical contraction order "
        "(repro.sparse.sweep).  A kernel applying @ / np.dot / np.einsum "
        "/ .dot to the raw storage buffers of a matrix parameter "
        "re-derives the product in numpy's order — close, but not "
        "replayable.  RA018 taints matrix parameters (contract "
        "MatrixSpec or DeviceMatrix annotation) through .csr/.ell/.dense "
        "unpacks, .data views, subscripts, and np.asarray, and flags "
        "dot-family operations on tainted operands.  Elementwise "
        "arithmetic, the *_sweep_* helpers of repro.sparse.sweep and "
        "matvec/matmat calls are allowed; their results are clean."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if not match_path(module.rel_path, config.kernel_modules):
            return
        for kernel_def in find_kernel_defs(module.tree):
            func = kernel_def.func
            tainted = _matrix_params(func, kernel_def.contract)
            if not tainted:
                continue
            _collect_taint(func, tainted)
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, ast.MatMult
                ):
                    if _expr_tainted(node.left, tainted) or _expr_tainted(
                        node.right, tainted
                    ):
                        yield module.finding(
                            node,
                            self.id,
                            f"kernel {kernel_def.kernel_name!r} contracts "
                            "matrix storage with '@'; route the product "
                            "through matvec / repro.sparse.sweep",
                        )
                elif isinstance(node, ast.Call):
                    func_node = node.func
                    name = (
                        func_node.attr
                        if isinstance(func_node, ast.Attribute)
                        else getattr(func_node, "id", None)
                    )
                    if name not in _DOT_FUNCS:
                        continue
                    operands = list(node.args)
                    if isinstance(func_node, ast.Attribute):
                        operands.append(func_node.value)
                    if any(_expr_tainted(op, tainted) for op in operands):
                        yield module.finding(
                            node,
                            self.id,
                            f"kernel {kernel_def.kernel_name!r} calls "
                            f"{_callee_label(node)!r} on matrix storage; "
                            "route the product through matvec / "
                            "repro.sparse.sweep",
                        )
