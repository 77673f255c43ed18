"""Abstract interpretation of ``@kernel`` bodies over the symbolic domain.

One :class:`Interp` run executes a block program's AST for one contract
:class:`~repro.gpu.contracts.LaunchMode`, from the point of view of an
*arbitrary* block ``block_id ∈ [0, grid)``, collecting every device
access as a symbolic :class:`~repro.analysis.kernelver.values.Access`.
Nothing is executed: loops run to an abstract fixpoint (join + widening
over the environment), branches are joined, optional-argument branches
are resolved by the mode's ``absent`` list, and single-block guards
(``if ctx.linear_block_id != 0: return``) pin subsequent accesses.

Constructs the interpreter cannot model *and* that could hide a device
access are reported as problems; a kernel with problems is unprovable
(RA020 then requires a named sanitize workload instead of a proof).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.kernelver.sym import Affine, Domain, parse_affine
from repro.analysis.kernelver.values import (
    Access,
    Cell,
    CellElem,
    CellElemVal,
    CellVal,
    CtxVal,
    Full,
    Host,
    IdxArr,
    Iv,
    LenMask,
    MaskedPtr,
    MatrixVal,
    NoneVal,
    NpVal,
    Opaque,
    PlanVal,
    Pt,
    PtrVals,
    Ref,
    RowLen,
    SymIv,
    SymVal,
    TupleVal,
    Unknown,
    join_values,
)
from repro.gpu.contracts import KernelContract, LaunchMode

__all__ = [
    "Interp",
    "ModeResult",
    "interpret_mode",
    "matrix_field_extent",
    "ref_extent",
]

#: Storage buffers a MatrixSpec parameter expands into.
MATRIX_FIELDS = (
    "dense",
    "csr_data",
    "csr_indices",
    "csr_indptr",
    "ell_data",
    "ell_indices",
)

#: Host-side helpers known to read their array arguments and return a
#: fresh host array (the canonical-sweep entry points, the one Chebyshev
#: step and the one mean over moment rows among them).
_HOST_FUNCS = frozenset(
    {
        "random_vector",
        "chebyshev_rows",
        "vector_mean",
        "dense_sweep_matvec",
        "dense_sweep_matmat",
        "csr_sweep_matvec",
        "csr_sweep_matmat",
        "ell_sweep_matvec",
        "ell_sweep_matmat",
        "build_sweep_plan",
    }
)

_LOOP_FIXPOINT_ITERS = 8
_INLINE_DEPTH = 6


@dataclass(frozen=True)
class _EllipsisVal:
    pass


@dataclass(frozen=True)
class _RangeVal:
    lo: Affine
    hi_excl: Affine | None  # None: unbounded (opaque stop)


@dataclass(frozen=True)
class _FuncVal:
    node: ast.FunctionDef

    def __eq__(self, other):
        return isinstance(other, _FuncVal) and other.node is self.node

    def __hash__(self):
        return id(self.node)


@dataclass
class ModeResult:
    """Outcome of interpreting one kernel body under one launch mode."""

    mode: LaunchMode
    domain: Domain
    accesses: list
    problems: list  # (line, message)


def matrix_field_extent(spec, field: str):
    """Extent of one storage buffer of a MatrixSpec (affine tuple or None)."""
    rows = parse_affine(spec.rows)
    cols = parse_affine(spec.cols)
    if field == "dense":
        return (rows, cols)
    if field in ("csr_data", "csr_indices"):
        if spec.nnz is None:
            return None
        return (parse_affine(spec.nnz),)
    if field == "csr_indptr":
        return (rows + 1,)
    if field in ("ell_data", "ell_indices"):
        if spec.ell_width is None:
            return None
        return (rows, parse_affine(spec.ell_width))
    return None


def ref_extent(contract: KernelContract, ref: Ref):
    """Full declared extent of the buffer behind a Ref (or None)."""
    if ref.field is None:
        spec = dict(contract.arrays).get(ref.param)
        if spec is None:
            return None
        return tuple(parse_affine(dim) for dim in spec.extent)
    spec = dict(contract.matrices).get(ref.param)
    if spec is None:
        return None
    return matrix_field_extent(spec, ref.field)


def _ref_values(contract: KernelContract, ref: Ref):
    """Declared value interval of an index buffer (affine pair or None)."""
    if ref.field is None:
        spec = dict(contract.arrays).get(ref.param)
        if spec is None or spec.values is None:
            return None
        return (parse_affine(spec.values[0]), parse_affine(spec.values[1]))
    spec = dict(contract.matrices).get(ref.param)
    if spec is None:
        return None
    if ref.field in ("csr_indices", "ell_indices"):
        return (Affine.of(0), parse_affine(spec.cols) - 1)
    if ref.field == "csr_indptr":
        if spec.nnz is None:
            return None
        return (Affine.of(0), parse_affine(spec.nnz))
    return None


def _join_env(a: dict, b: dict) -> dict:
    out = dict(a)
    for name, value in b.items():
        if name in out:
            out[name] = join_values(out[name], value)
        else:
            out[name] = value
    return out


class _Recorder:
    """Deduplicating access collector with an enable switch."""

    def __init__(self):
        self.accesses: list = []
        self._seen: set = set()
        self.enabled = True

    def record(self, access: Access) -> None:
        if not self.enabled:
            return
        key = (
            access.param,
            access.field,
            access.kind,
            access.pinned,
            access.dims_text(),
        )
        if key in self._seen:
            return
        self._seen.add(key)
        self.accesses.append(access)


class Interp:
    """One abstract execution of a kernel body under one launch mode."""

    def __init__(
        self,
        contract: KernelContract,
        mode: LaunchMode,
        module_tree: ast.Module,
    ):
        self.contract = contract
        self.mode = mode
        self.recorder = _Recorder()
        self.problems: list = []
        self.pinned: int | None = None
        self.depth = 0
        self._retval = Opaque()
        domain = (
            Domain()
            .with_bounds("grid", 1, None)
            .with_bounds("block_size", 1, None)
            .with_bounds("block_id", 0, "grid - 1")
        )
        for sym, (lo, hi) in dict(contract.symbols).items():
            domain = domain.with_bounds(sym, lo, hi)
        for sym, (lo, hi) in dict(mode.bounds).items():
            domain = domain.with_bounds(sym, lo, hi)
        self.domain = domain
        self.env: dict = {"np": NpVal()}
        for stmt in module_tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self.env[stmt.name] = _FuncVal(stmt)

    # ------------------------------------------------------------------
    def run(self, func: ast.FunctionDef) -> ModeResult:
        params = [a.arg for a in func.args.args] + [
            a.arg for a in func.args.kwonlyargs
        ]
        if params:
            self.env[params[0]] = CtxVal()
        arrays = dict(self.contract.arrays)
        matrices = dict(self.contract.matrices)
        partitions = dict(self.contract.partitions)
        symbols = dict(self.contract.symbols)
        for name in params[1:]:
            if name in self.mode.absent:
                self.env[name] = NoneVal()
            elif name in arrays:
                self.env[name] = Ref(name)
            elif name in matrices:
                self.env[name] = MatrixVal(name)
            elif name in partitions:
                self.env[name] = PlanVal(name, parse_affine(partitions[name]))
            elif name in symbols:
                self.env[name] = SymVal(Affine.of(name))
            else:
                self.env[name] = Opaque()
        self.exec_block(func.body)
        return ModeResult(
            mode=self.mode,
            domain=self.domain,
            accesses=self.recorder.accesses,
            problems=sorted(set(self.problems)),
        )

    def problem(self, node: ast.AST, message: str) -> None:
        self.problems.append((getattr(node, "lineno", 0), message))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, stmts) -> str:
        for stmt in stmts:
            flow = self.exec_stmt(stmt)
            if flow == "exit":
                return "exit"
        return "through"

    def exec_stmt(self, node: ast.stmt) -> str:
        if isinstance(node, ast.Assign):
            value = self.eval(node.value)
            for target in node.targets:
                self._assign_target(target, value, node)
            return "through"
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign_target(node.target, self.eval(node.value), node)
            return "through"
        if isinstance(node, ast.AugAssign):
            self._aug_assign(node)
            return "through"
        if isinstance(node, ast.Expr):
            self.eval(node.value)
            return "through"
        if isinstance(node, ast.For):
            self._exec_for(node)
            return "through"
        if isinstance(node, ast.If):
            return self._exec_if(node)
        if isinstance(node, (ast.Return,)):
            if node.value is not None:
                self._retval = self.eval(node.value)
            return "exit"
        if isinstance(node, (ast.Continue, ast.Break)):
            return "exit"
        if isinstance(node, ast.FunctionDef):
            self.env[node.name] = _FuncVal(node)
            return "through"
        if isinstance(node, (ast.Pass, ast.Global, ast.Nonlocal, ast.Import, ast.ImportFrom)):
            return "through"
        if isinstance(node, ast.Assert):
            return "through"
        if isinstance(node, ast.Raise):
            return "exit"
        if isinstance(node, (ast.While, ast.With, ast.Try, ast.Match)):
            self.problem(
                node,
                f"unsupported statement {type(node).__name__} in kernel body",
            )
            return "through"
        return "through"

    # -- assignment ----------------------------------------------------
    def _assign_target(self, target: ast.AST, value, node: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, TupleVal) and len(value.items) == len(target.elts):
                for sub, item in zip(target.elts, value.items):
                    self._assign_target(sub, item, node)
            else:
                for sub in target.elts:
                    self._assign_target(sub, Opaque(), node)
            return
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            if isinstance(base, Ref):
                dims = tuple(self._index_sets(target.slice))
                self._record(base.param, base.field, base.dims + dims, "write", node)
                self._touch_value(value, node)
            elif isinstance(base, (MatrixVal, PlanVal, CtxVal)):
                self.problem(node, "store into an unmodelable device object")
            return
        # attribute stores and starred targets play no role in kernels

    def _aug_assign(self, node: ast.AugAssign) -> None:
        value = self.eval(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            current = self.env.get(target.id, Opaque())
            if isinstance(current, Ref):
                self._record(
                    current.param, current.field, current.dims, "read", node
                )
                self._record(
                    current.param, current.field, current.dims, "write", node
                )
                return
            if (
                isinstance(current, SymVal)
                and isinstance(value, SymVal)
                and isinstance(node.op, (ast.Add, ast.Sub))
            ):
                expr = (
                    current.expr + value.expr
                    if isinstance(node.op, ast.Add)
                    else current.expr - value.expr
                )
                self.env[target.id] = SymVal(expr)
                return
            self.env[target.id] = Host() if isinstance(current, (Host, IdxArr)) else Opaque()
            return
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            if isinstance(base, Ref):
                dims = base.dims + tuple(self._index_sets(target.slice))
                self._record(base.param, base.field, dims, "read", node)
                self._record(base.param, base.field, dims, "write", node)
                self._touch_value(value, node)

    # -- loops ---------------------------------------------------------
    def _exec_for(self, node: ast.For) -> None:
        iter_val = self.eval(node.iter)
        binding = Opaque()
        # A loop symbol's bounds hold only inside the body.
        pre_domain = self.domain
        if isinstance(iter_val, _RangeVal):
            if isinstance(node.target, ast.Name):
                sym = f"{node.target.id}#{node.lineno}"
            else:
                sym = f"loop#{node.lineno}"
            hi = None if iter_val.hi_excl is None else iter_val.hi_excl - 1
            self.domain = self.domain.with_bounds(sym, iter_val.lo, hi)
            binding = SymVal(Affine.of(sym))
        elif isinstance(iter_val, CellVal) and iter_val.shift == 0:
            binding = CellElemVal(iter_val.family, iter_val.total)
        elif isinstance(iter_val, TupleVal):
            joined = Opaque()
            if iter_val.items:
                joined = iter_val.items[0]
                for item in iter_val.items[1:]:
                    joined = join_values(joined, item)
            binding = joined

        pre_env = dict(self.env)
        cur = dict(self.env)
        self._bind_loop_target(cur, node.target, binding)

        was_enabled = self.recorder.enabled
        self.recorder.enabled = False
        stable = False
        for _ in range(_LOOP_FIXPOINT_ITERS):
            self.env = dict(cur)
            self.exec_block(node.body)
            out = dict(self.env)
            self._bind_loop_target(out, node.target, binding)
            merged = _join_env(cur, out)
            if merged == cur:
                stable = True
                break
            cur = merged
        self.recorder.enabled = was_enabled
        if not stable:
            self.problem(node, "loop environment did not stabilize")

        self.env = dict(cur)
        self.exec_block(node.body)
        self.env = _join_env(pre_env, self.env)
        self.domain = pre_domain
        if node.orelse:
            self.exec_block(node.orelse)

    def _bind_loop_target(self, env: dict, target: ast.AST, binding) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = binding
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                self._bind_loop_target(env, sub, Opaque())

    # -- branches ------------------------------------------------------
    def _exec_if(self, node: ast.If) -> str:
        decided = self._none_test(node.test)
        if decided is not None:
            return self.exec_block(node.body if decided else node.orelse)

        guard_only = not node.orelse and len(node.body) == 1 and isinstance(
            node.body[0], (ast.Return, ast.Continue, ast.Break)
        )
        if guard_only:
            # The taken branch performs no accesses; fall through with
            # the negated test refined into the domain (block pins,
            # `num_moments == 1: continue`, emptiness guards).
            self._refine(node.test, positive=False)
            return "through"

        saved_env = dict(self.env)
        saved_domain = self.domain
        saved_pin = self.pinned

        self._refine(node.test, positive=True)
        flow_then = self.exec_block(node.body)
        env_then = self.env

        self.env = dict(saved_env)
        self.domain = saved_domain
        self.pinned = saved_pin
        self._refine(node.test, positive=False)
        flow_else = self.exec_block(node.orelse)
        env_else = self.env

        self.domain = saved_domain
        self.pinned = saved_pin
        if flow_then == "exit" and flow_else == "exit":
            return "exit"
        if flow_then == "exit":
            self.env = env_else
        elif flow_else == "exit":
            self.env = env_then
        else:
            self.env = _join_env(env_then, env_else)
        return "through"

    def _none_test(self, test: ast.AST) -> bool | None:
        """Resolve ``x is None`` / ``x is not None`` through the mode."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        value = self.eval(test.left)
        is_none = isinstance(value, NoneVal)
        if not is_none and isinstance(value, Opaque):
            return None
        return is_none if isinstance(test.ops[0], ast.Is) else not is_none

    def _refine(self, test: ast.AST, *, positive: bool) -> None:
        """Narrow the domain (or pin the block) by a branch condition."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return
        left = self.eval(test.left)
        right = self.eval(test.comparators[0])
        if not (isinstance(left, SymVal) and isinstance(right, SymVal)):
            return
        op = test.ops[0]
        # Normalize to a constraint on a lone symbol on the left.
        sym_expr, other = left.expr, right.expr
        flip = False
        if not (len(sym_expr.terms) == 1 and sym_expr.const == 0 and sym_expr.terms[0][1] == 1):
            sym_expr, other = right.expr, left.expr
            flip = True
            if not (
                len(sym_expr.terms) == 1
                and sym_expr.const == 0
                and sym_expr.terms[0][1] == 1
            ):
                return
        name = sym_expr.terms[0][0]
        kind = None
        if isinstance(op, ast.Eq):
            kind = "eq"
        elif isinstance(op, ast.NotEq):
            kind = "ne"
        elif isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
            greater = isinstance(op, (ast.Gt, ast.GtE))
            strict = isinstance(op, (ast.Gt, ast.Lt))
            if flip:
                greater = not greater
            kind = ("gt" if strict else "ge") if greater else ("lt" if strict else "le")
        if kind is None:
            return
        if not positive:
            kind = {"eq": "ne", "ne": "eq", "gt": "le", "ge": "lt", "lt": "ge", "le": "gt"}[kind]
        if kind == "eq":
            self.domain = self.domain.with_bounds(name, other, other)
            if name == "block_id" and other.is_const:
                self.pinned = other.const
        elif kind == "gt":
            self.domain = self.domain.with_bounds(name, other + 1, None)
        elif kind == "ge":
            self.domain = self.domain.with_bounds(name, other, None)
        elif kind == "lt":
            self.domain = self.domain.with_bounds(name, None, other - 1)
        elif kind == "le":
            self.domain = self.domain.with_bounds(name, None, other)
        elif kind == "ne" and other.is_const:
            lo, hi = self.domain.bounds_of(name)
            if lo is not None and lo.is_const and lo.const == other.const:
                self.domain = self.domain.with_bounds(name, other + 1, None)
            elif hi is not None and hi.is_const and hi.const == other.const:
                self.domain = self.domain.with_bounds(name, None, other - 1)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.AST):
        if isinstance(node, ast.Constant):
            value = node.value
            if value is None:
                return NoneVal()
            if value is Ellipsis:
                return _EllipsisVal()
            if isinstance(value, bool):
                return Opaque()
            if isinstance(value, int):
                return SymVal(Affine.of(value))
            if isinstance(value, float):
                return Host()
            return Opaque()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Opaque())
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.USub) and isinstance(operand, SymVal):
                return SymVal(-operand.expr)
            self._touch_value(operand, node)
            return Opaque()
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Tuple):
            return TupleVal(tuple(self.eval(item) for item in node.elts))
        if isinstance(node, ast.IfExp):
            then = self.eval(node.body)
            other = self.eval(node.orelse)
            return join_values(then, other)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return Opaque()
        if isinstance(node, (ast.List, ast.Set, ast.Dict, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp, ast.JoinedStr)):
            return Opaque()
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return Opaque()

    # -- attribute access ----------------------------------------------
    def _eval_attribute(self, node: ast.Attribute):
        base = self.eval(node.value)
        attr = node.attr
        if isinstance(base, CtxVal):
            if attr == "linear_block_id":
                return SymVal(Affine.of("block_id"))
            if attr == "threads_per_block":
                return SymVal(Affine.of("block_size"))
            return Opaque()
        if isinstance(base, Ref):
            if attr == "data":
                return base
            if attr == "shape":
                extent = ref_extent(self.contract, base)
                if extent is None:
                    return Opaque()
                remaining = extent[len(base.dims):]
                return TupleVal(tuple(SymVal(dim) for dim in remaining))
            if attr == "T":
                self._record(base.param, base.field, base.dims, "read", node)
                return Host()
            return Opaque()
        if isinstance(base, MatrixVal):
            spec = dict(self.contract.matrices)[base.param]
            if attr == "shape":
                return TupleVal(
                    (
                        SymVal(parse_affine(spec.rows)),
                        SymVal(parse_affine(spec.cols)),
                    )
                )
            if attr == "csr":
                return TupleVal(
                    (
                        Ref(base.param, "csr_data"),
                        Ref(base.param, "csr_indices"),
                        Ref(base.param, "csr_indptr"),
                    )
                )
            if attr == "ell":
                return TupleVal(
                    (Ref(base.param, "ell_data"), Ref(base.param, "ell_indices"))
                )
            if attr == "dense":
                return Ref(base.param, "dense")
            if attr == "nnz" and spec.nnz is not None:
                return SymVal(parse_affine(spec.nnz))
            if attr in ("matvec", "matmat"):
                # A bound product, handed to a host step, reads the storage.
                return self._storage(base.param)
            return Opaque()
        return Opaque()

    def _storage(self, param: str) -> TupleVal:
        """Every storage buffer of matrix parameter ``param``."""
        spec = dict(self.contract.matrices)[param]
        fields = [f for f in MATRIX_FIELDS if matrix_field_extent(spec, f) is not None]
        return TupleVal(tuple(Ref(param, field) for field in fields))

    # -- subscripts ----------------------------------------------------
    def _index_sets(self, slice_node: ast.AST) -> list:
        items = (
            list(slice_node.elts)
            if isinstance(slice_node, ast.Tuple)
            else [slice_node]
        )
        dims = []
        for item in items:
            if isinstance(item, ast.Slice):
                if item.lower is None and item.upper is None and item.step is None:
                    dims.append(Full())
                else:
                    for part in (item.lower, item.upper, item.step):
                        if part is not None:
                            self.eval(part)
                    dims.append(Unknown())
                continue
            dims.append(self._value_to_dim(self.eval(item)))
        return dims

    def _value_to_dim(self, value):
        if isinstance(value, SymVal):
            return Pt(value.expr)
        if isinstance(value, SymIv):
            return Iv(value.lo, value.hi)
        if isinstance(value, CellVal):
            return value.as_dim()
        if isinstance(value, CellElemVal):
            return value.as_dim()
        if isinstance(value, IdxArr):
            return Iv(value.lo, value.hi)
        if isinstance(value, _EllipsisVal):
            return Full()
        return Unknown()

    def _eval_subscript(self, node: ast.Subscript):
        base = self.eval(node.value)
        if isinstance(base, TupleVal):
            index = self.eval(node.slice)
            if isinstance(index, SymVal) and index.expr.is_const:
                pos = index.expr.const
                if 0 <= pos < len(base.items):
                    return base.items[pos]
            return Opaque()
        if isinstance(base, Ref):
            # indptr[cell(+shift)] is the monotone-pointer entry point.
            if base.field == "csr_indptr" and not isinstance(node.slice, ast.Tuple):
                index = self.eval(node.slice)
                if isinstance(index, CellVal):
                    self._record(
                        base.param, base.field, (index.as_dim(),), "read", node
                    )
                    return PtrVals(
                        base.param, index.family, index.total, index.shift
                    )
            dims = tuple(self._index_sets(node.slice))
            all_dims = base.dims + dims
            self._record(base.param, base.field, all_dims, "read", node)
            values = _ref_values(self.contract, base)
            if values is not None:
                return IdxArr(values[0], values[1])
            return Ref(base.param, base.field, all_dims)
        if isinstance(base, PtrVals):
            index = self.eval(node.slice)
            if (
                isinstance(index, LenMask)
                and index.param == base.param
                and index.family == base.family
                and base.offset == 0
            ):
                return MaskedPtr(base.param, base.family, base.total, index.k)
            return Opaque()
        if isinstance(base, IdxArr):
            self.eval(node.slice)
            return base  # any subset keeps the value interval
        if isinstance(base, (Host,)):
            self.eval(node.slice)
            return Host()
        self.eval(node.slice)
        return Opaque()

    # -- operators -----------------------------------------------------
    def _eval_binop(self, node: ast.BinOp):
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = node.op
        if isinstance(left, SymVal) and isinstance(right, SymVal):
            if isinstance(op, ast.Add):
                return SymVal(left.expr + right.expr)
            if isinstance(op, ast.Sub):
                return SymVal(left.expr - right.expr)
            if isinstance(op, ast.Mult):
                if left.expr.is_const:
                    return SymVal(right.expr.scaled(left.expr.const))
                if right.expr.is_const:
                    return SymVal(left.expr.scaled(right.expr.const))
            return Opaque()
        if isinstance(left, CellVal) and isinstance(right, SymVal) and right.expr.is_const:
            if isinstance(op, ast.Add):
                return CellVal(left.family, left.total, left.shift + right.expr.const)
            if isinstance(op, ast.Sub):
                return CellVal(left.family, left.total, left.shift - right.expr.const)
        if (
            isinstance(op, ast.Sub)
            and isinstance(left, PtrVals)
            and isinstance(right, PtrVals)
            and left.param == right.param
            and left.family == right.family
            and left.offset == right.offset + 1
        ):
            return RowLen(left.param, left.family, left.total)
        if isinstance(op, ast.Add) and isinstance(left, MaskedPtr):
            if isinstance(right, SymVal) and right.expr == left.k:
                spec = dict(self.contract.matrices).get(left.param)
                if spec is not None and spec.nnz is not None:
                    nnz = parse_affine(spec.nnz)
                    return IdxArr(Affine.of(0), nnz - 1)
            return Opaque()
        self._touch_value(left, node)
        self._touch_value(right, node)
        if isinstance(left, (Host, IdxArr, Ref)) or isinstance(
            right, (Host, IdxArr, Ref)
        ):
            return Host()
        return Opaque()

    def _eval_compare(self, node: ast.Compare):
        left = self.eval(node.left)
        rights = [self.eval(comp) for comp in node.comparators]
        if (
            len(node.ops) == 1
            and isinstance(node.ops[0], ast.Gt)
            and isinstance(left, RowLen)
            and isinstance(rights[0], SymVal)
        ):
            return LenMask(left.param, left.family, left.total, rights[0].expr)
        return Opaque()

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._eval_method_call(node, func)
        args = [self.eval(arg) for arg in node.args]
        kwargs = {kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg}
        name = getattr(func, "id", None)
        if name is not None and isinstance(self.env.get(name), _FuncVal):
            return self._inline(self.env[name], node, args, kwargs)
        if name == "range":
            lo = Affine.of(0)
            hi = None
            bounds = [a for a in args]
            if len(bounds) == 1 and isinstance(bounds[0], SymVal):
                hi = bounds[0].expr
            elif len(bounds) >= 2:
                if isinstance(bounds[0], SymVal):
                    lo = bounds[0].expr
                if isinstance(bounds[1], SymVal):
                    hi = bounds[1].expr
            return _RangeVal(lo, hi)
        if name == "len":
            return Opaque()
        if name in ("int", "float"):
            if args and isinstance(args[0], SymVal):
                return args[0] if name == "int" else Host()
            return Opaque() if name == "int" else Host()
        if name == "divmod":
            return TupleVal((Opaque(), Opaque()))
        if name in _HOST_FUNCS:
            for value in [*args, *kwargs.values()]:
                self._touch_value(value, node)
            return Host()
        if name in ("min", "max", "abs", "sum", "print", "isinstance", "str", "bool"):
            return Opaque()
        # Unknown callee: reads are assumed; a writable device argument
        # would escape the proof, so it degrades the kernel to unprovable.
        for value in [*args, *kwargs.values()]:
            self._touch_value(value, node)
            if isinstance(value, Ref):
                role = self._role_of(value)
                if role in ("out", "inout", "scratch"):
                    self.problem(
                        node,
                        f"unknown call {name or '<expr>'!r} receives writable "
                        f"device buffer {value.param!r}",
                    )
        return Opaque()

    def _eval_method_call(self, node: ast.Call, func: ast.Attribute):
        base = self.eval(func.value)
        attr = func.attr
        args = [self.eval(arg) for arg in node.args]
        kwargs = {kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg}
        if isinstance(base, CtxVal):
            if attr == "thread_range":
                if args and isinstance(args[0], SymVal):
                    expr = args[0].expr
                    return CellVal(("thread_range", expr.text()), expr)
                self.problem(node, "thread_range with a non-affine total")
                return Opaque()
            return Opaque()  # charge / shared_alloc: accounting only
        if isinstance(base, PlanVal):
            if attr == "vectors_of":
                if (
                    args
                    and isinstance(args[0], SymVal)
                    and args[0].expr == Affine.of("block_id")
                ):
                    return CellVal(("plan", base.param), base.total)
                self.problem(node, "vectors_of with a non-block argument")
                return Opaque()
            return Opaque()
        if isinstance(base, MatrixVal):
            if attr in ("matvec", "matmat"):
                self._touch_value(self._storage(base.param), node)
                for value in args:
                    self._touch_value(value, node)
                return Host()
            return Opaque()
        if isinstance(base, NpVal):
            if attr == "asarray" and args:
                if isinstance(args[0], Ref):
                    self._record(
                        args[0].param, args[0].field, args[0].dims, "read", node
                    )
                    return args[0]
                return Host()
            if attr in ("zeros", "empty", "ones", "full", "arange", "concatenate", "empty_like", "zeros_like"):
                return Host()
            for value in [*args, *kwargs.values()]:
                self._touch_value(value, node)
            return Host()
        if isinstance(base, Ref):
            # A device-region method (.mean/.sum/.max/.astype/...)
            # materializes the region on the host.
            self._record(base.param, base.field, base.dims, "read", node)
            for value in [*args, *kwargs.values()]:
                self._touch_value(value, node)
            return Host()
        for value in [*args, *kwargs.values()]:
            self._touch_value(value, node)
        if isinstance(base, (Host, IdxArr)):
            return Host()  # host-array methods (.astype, .sum, ...) stay host
        return Opaque()

    def _inline(self, funcval: _FuncVal, node: ast.Call, args, kwargs):
        if self.depth >= _INLINE_DEPTH:
            self.problem(node, "call inlining too deep")
            return Opaque()
        func = funcval.node
        params = [a.arg for a in func.args.args]
        saved_env = self.env
        saved_ret = self._retval
        self.env = dict(saved_env)
        for name, value in zip(params, args):
            self.env[name] = value
        for name, value in kwargs.items():
            if name in params:
                self.env[name] = value
        for name in params[len(args):]:
            if name not in kwargs:
                self.env.setdefault(name, Opaque())
        self.depth += 1
        self._retval = Opaque()
        self.exec_block(func.body)
        result = self._retval
        self.depth -= 1
        self.env = saved_env
        self._retval = saved_ret
        return result

    # ------------------------------------------------------------------
    def _role_of(self, ref: Ref) -> str:
        if ref.field is not None:
            return "in"  # matrix storage is read-only inside kernels
        spec = dict(self.contract.arrays).get(ref.param)
        return spec.role if spec is not None else "in"

    def _touch_value(self, value, node: ast.AST) -> None:
        """Record the read a value's materialization implies."""
        if isinstance(value, Ref):
            self._record(value.param, value.field, value.dims, "read", node)
        elif isinstance(value, TupleVal):
            for item in value.items:
                self._touch_value(item, node)

    def _record(self, param, field, dims, kind, node) -> None:
        self.recorder.record(
            Access(
                param=param,
                field=field,
                dims=tuple(dims),
                kind=kind,
                line=getattr(node, "lineno", 0),
                pinned=self.pinned,
                domain=self.domain,
            )
        )


def interpret_mode(
    func: ast.FunctionDef,
    contract: KernelContract,
    mode: LaunchMode,
    module_tree: ast.Module,
) -> ModeResult:
    """Interpret one kernel body under one launch mode."""
    return Interp(contract, mode, module_tree).run(func)
