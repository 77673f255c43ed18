"""RA004 — simulated CUDA launch contract.

The paper's decomposition launches ``num_blocks = ceil(R*S / BLOCK_SIZE)``
thread blocks; every launch geometry in the library must flow through
:func:`repro.gpukpm.stats.plan_grid` rather than hard-coding dimensions,
and block sizes must be positive powers of two (the shared-memory
reduction trees and warp-multiple occupancy math both assume it —
enforced at runtime by :func:`repro.util.validation.check_power_of_two`).

At a ``*.launch(...)`` call site the rule accepts:

``block=``
    * an integer literal that is a positive power of two;
    * an expression mentioning ``block_size`` (``plan.block_size``,
      ``config.block_size``, a local ``block_size`` variable) — i.e. a
      value produced by the planning layer;
    * a direct ``check_power_of_two(...)`` call.
``grid=``
    * any non-literal expression (``plan.num_blocks``, a computed
      variable).  Integer literals are flagged: a hard-coded grid
      bypasses the planner.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["LaunchContractRule", "is_power_of_two"]


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return value > 0 and value & (value - 1) == 0


def _mentions_block_size(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "block_size":
            return True
        if isinstance(sub, ast.Name) and sub.id == "block_size":
            return True
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None and name.split(".")[-1] == "check_power_of_two":
                return True
    return False


class LaunchContractRule(Rule):
    """Validate ``block=`` / ``grid=`` keywords of kernel-launch calls."""

    id = "RA004"
    name = "launch-contract"
    description = (
        "kernel launch with a non-power-of-two literal block size or a "
        "hard-coded grid that bypasses the planning layer"
    )
    explain = (
        "RA004 audits every '*.launch(...)' call site against the "
        "paper's launch geometry: block sizes must be positive powers "
        "of two (the shared-memory reduction trees and warp-occupancy "
        "math assume it) and grids must come from the planning layer "
        "(plan_grid), never integer literals. A "
        "block= argument passes as a power-of-two literal, any "
        "expression mentioning block_size, or a check_power_of_two() "
        "call; a grid= argument passes as any non-literal expression."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute) and node.func.attr == "launch"
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg == "block":
                    yield from self._check_block(module, keyword.value)
                elif keyword.arg == "grid":
                    yield from self._check_grid(module, keyword.value)

    def _check_block(self, module: SourceModule, value: ast.AST) -> Iterator[Finding]:
        if isinstance(value, ast.Constant):
            if not (
                isinstance(value.value, int)
                and not isinstance(value.value, bool)
                and is_power_of_two(value.value)
            ):
                yield module.finding(
                    value,
                    self.id,
                    f"literal block size {value.value!r} is not a positive "
                    "power of two",
                )
            return
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                yield from self._check_block(module, element)
            return
        if not _mentions_block_size(value):
            yield module.finding(
                value,
                self.id,
                "block size does not come from the planning layer; pass "
                "plan.block_size / config.block_size or wrap the value in "
                "check_power_of_two(...)",
            )

    def _check_grid(self, module: SourceModule, value: ast.AST) -> Iterator[Finding]:
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            yield module.finding(
                value,
                self.id,
                f"hard-coded grid dimension {value.value!r} bypasses "
                "plan_grid / the memory plan; derive it from the plan",
            )
        elif isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                yield from self._check_grid(module, element)
