"""R10: unit/dimension analysis for the power and energy bookkeeping.

The paper's Eq.(1)-style accounting mixes quantities whose magnitudes
overlap numerically but whose dimensions do not: clock cycles, volts,
hertz, milliwatts, femtojoules (the accountant's integer ledgers), and
joules. A femtojoule count added to a milliwatt figure is a
modeling bug that no test may ever sample. This pass infers a dimension
for every expression it can prove one for and flags:

* ``+``/``-`` between two expressions of *different known* dimensions;
* ordering/equality comparison between different known dimensions;
* assignment of one known dimension to a target named (or annotated)
  as another, without a conversion in between.

Dimensions come from two sources, both declared in :mod:`repro.units`:

* **annotations** — the ``Quantity`` NewTypes (``Cycles``, ``Volts``,
  ``Hertz``, ``Milliwatts``, ``Femtojoules``, ``Joules``) on function
  parameters, returns, and ``AnnAssign`` targets;
* **naming conventions** — the repo-wide suffixes ``*_fj``, ``*_mw``,
  ``*_v``, ``*_cycles`` on variables, attributes, and functions.

Inference is deliberately conservative: multiplication, division, and
anything else that changes dimension yields *unknown*, and unknown
never triggers a finding. The pass runs over ``repro/core/`` and
``repro/power/`` — the modules that carry the paper's power/energy
arithmetic.
"""

from __future__ import annotations

import ast

from .model import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Violation,
    dotted_name,
)

#: Files the dimension pass applies to.
DIMENSION_SCOPE = ("repro/core/", "repro/power/")

#: Identifier suffix -> dimension.
SUFFIX_DIMENSIONS = {
    "_fj": "femtojoules",
    "_mw": "milliwatts",
    "_v": "volts",
    "_cycles": "cycles",
}

#: Quantity NewType annotation name -> dimension (see repro/units.py).
ANNOTATION_DIMENSIONS = {
    "Cycles": "cycles",
    "Volts": "volts",
    "Hertz": "hertz",
    "Milliwatts": "milliwatts",
    "Femtojoules": "femtojoules",
    "Joules": "joules",
}

#: Known converter functions (matched on the last dotted component) ->
#: dimension of the value they return.
CONVERTER_RETURNS = {
    "joules_to_femtojoules": "femtojoules",
    "femtojoules_to_joules": "joules",
    "seconds_to_cycles": "cycles",
    "mhz": "hertz",
    "ghz": "hertz",
}

_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def name_dimension(name: str) -> str | None:
    """Dimension implied by identifier *name*'s suffix, if any."""
    for suffix, dimension in SUFFIX_DIMENSIONS.items():
        if name.endswith(suffix) and name != suffix:
            return dimension
    return None


def annotation_dimension(annotation: ast.expr | None) -> str | None:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    name = dotted_name(annotation)
    if name is None:
        return None
    return ANNOTATION_DIMENSIONS.get(name.split(".")[-1])


class _FunctionDimensions:
    """Per-function dimension environment and expression inference."""

    def __init__(self, model: ProjectModel, function: FunctionInfo) -> None:
        self.model = model
        self.function = function
        self.env: dict[str, str] = {}
        args = function.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            dimension = annotation_dimension(arg.annotation) or name_dimension(arg.arg)
            if dimension is not None:
                self.env[arg.arg] = dimension

    def bind(self, name: str, dimension: str | None) -> None:
        if dimension is not None:
            self.env[name] = dimension
        else:
            self.env.pop(name, None)

    # -- inference ---------------------------------------------------------

    def infer(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or name_dimension(node.id)
        if isinstance(node, ast.Attribute):
            return name_dimension(node.attr)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.infer(node.left)
            right = self.infer(node.right)
            if left is not None and right is not None:
                return left if left == right else None
            return left or right
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            return body if body == orelse else None
        if isinstance(node, (ast.Await, ast.Starred)):
            return self.infer(node.value)
        return None

    def _infer_call(self, node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        last = name.split(".")[-1]
        if last in CONVERTER_RETURNS:
            return CONVERTER_RETURNS[last]
        if last in ("abs", "min", "max", "round", "sum"):
            # Dimension-preserving builtins: infer from the arguments.
            dims = {self.infer(arg) for arg in node.args}
            dims.discard(None)
            if len(dims) == 1:
                return dims.pop()
            return None
        if last in ("int", "float"):
            if len(node.args) == 1:
                return self.infer(node.args[0])
            return None
        # Resolved project function with an annotated Quantity return.
        resolved = self.model.resolve_call(
            self.function,
            # Reuse the model's CallSite-shaped resolution through a
            # lightweight stand-in; the resolver only reads name/node.
            _call_site(name, node),
        )
        if resolved is not None:
            dimension = annotation_dimension(resolved.node.returns)
            if dimension is not None:
                return dimension
        # Function naming convention: ``*_cycles()`` returns cycles.
        return name_dimension(last)


def _call_site(name: str, node: ast.Call) -> CallSite:
    return CallSite(name, node, node.lineno, node.col_offset)


def _target_dimension(
    scope: _FunctionDimensions, target: ast.expr, annotation: ast.expr | None = None
) -> tuple[str | None, str | None]:
    """(declared dimension, display name) for an assignment target."""
    declared = annotation_dimension(annotation)
    if isinstance(target, ast.Name):
        return declared or name_dimension(target.id), target.id
    if isinstance(target, ast.Attribute):
        return declared or name_dimension(target.attr), dotted_name(target) or target.attr
    return declared, None


def check(model: ProjectModel) -> list[Violation]:
    """Run R10 over *model*; returns sorted violations."""
    violations: list[Violation] = []
    for module in model.iter_modules():
        if not any(fragment in module.path for fragment in DIMENSION_SCOPE):
            continue
        for function in module.functions.values():
            violations.extend(_check_function(model, module, function))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def _check_function(
    model: ProjectModel, module: ModuleInfo, function: FunctionInfo
) -> list[Violation]:
    scope = _FunctionDimensions(model, function)
    violations: list[Violation] = []
    path = module.display_path
    reported: set[int] = set()

    def flag(node: ast.AST, message: str) -> None:
        if node.lineno in reported:
            return
        reported.add(node.lineno)
        violations.append(
            Violation(path, node.lineno, node.col_offset, "R10", message)
        )

    def scan_expression(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub)):
                left = scope.infer(sub.left)
                right = scope.infer(sub.right)
                if left is not None and right is not None and left != right:
                    op = "+" if isinstance(sub.op, ast.Add) else "-"
                    flag(
                        sub,
                        f"dimension mismatch: {left} {op} {right} "
                        f"({ast.unparse(sub)}); convert explicitly via "
                        "repro.units before combining",
                    )
            elif isinstance(sub, ast.Compare):
                operands = [sub.left] + list(sub.comparators)
                for index, op in enumerate(sub.ops):
                    if not isinstance(op, _COMPARE_OPS):
                        continue
                    left = scope.infer(operands[index])
                    right = scope.infer(operands[index + 1])
                    if left is not None and right is not None and left != right:
                        flag(
                            sub,
                            f"dimension mismatch in comparison: {left} vs "
                            f"{right} ({ast.unparse(sub)}); comparing "
                            "different units is never meaningful",
                        )

    # Statement walk in source order so the def-use environment is
    # populated before later uses (last assignment wins on branches).
    statements = [
        stmt
        for stmt in ast.walk(function.node)
        if isinstance(stmt, ast.stmt) and stmt is not function.node
    ]
    statements.sort(key=lambda stmt: (stmt.lineno, stmt.col_offset))
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.Assign):
            scan_expression(stmt.value)
            value_dim = scope.infer(stmt.value)
            for target in stmt.targets:
                declared, display = _target_dimension(scope, target)
                if (
                    declared is not None
                    and value_dim is not None
                    and declared != value_dim
                ):
                    flag(
                        stmt,
                        f"unconverted assignment: {display or 'target'} is "
                        f"{declared} but the value is {value_dim} "
                        f"({ast.unparse(stmt.value)}); convert via repro.units",
                    )
                elif isinstance(target, ast.Name):
                    scope.bind(target.id, value_dim)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                scan_expression(stmt.value)
                value_dim = scope.infer(stmt.value)
                declared, display = _target_dimension(
                    scope, stmt.target, stmt.annotation
                )
                if (
                    declared is not None
                    and value_dim is not None
                    and declared != value_dim
                ):
                    flag(
                        stmt,
                        f"unconverted assignment: {display or 'target'} is "
                        f"{declared} but the value is {value_dim} "
                        f"({ast.unparse(stmt.value)}); convert via repro.units",
                    )
                elif isinstance(stmt.target, ast.Name):
                    scope.bind(stmt.target.id, value_dim or declared)
            elif isinstance(stmt.target, ast.Name):
                scope.bind(stmt.target.id, annotation_dimension(stmt.annotation))
        elif isinstance(stmt, ast.AugAssign):
            scan_expression(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                declared, display = _target_dimension(scope, stmt.target)
                if isinstance(stmt.target, ast.Name) and declared is None:
                    declared = scope.env.get(stmt.target.id)
                value_dim = scope.infer(stmt.value)
                if (
                    declared is not None
                    and value_dim is not None
                    and declared != value_dim
                ):
                    op = "+=" if isinstance(stmt.op, ast.Add) else "-="
                    flag(
                        stmt,
                        f"dimension mismatch: {display or 'target'} "
                        f"({declared}) {op} {value_dim} value "
                        f"({ast.unparse(stmt.value)}); convert via repro.units",
                    )
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    scan_expression(child)
    return violations
