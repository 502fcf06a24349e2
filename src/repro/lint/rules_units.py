"""U-rules: flow-sensitive unit/dimension checking.

Built on :mod:`repro.lint.cfg` + :mod:`repro.lint.dataflow` with the
dimension algebra from :mod:`repro.lint.dimensions`.  Dimensions enter
through the repo's suffix conventions (``_s``, ``_bytes``, ``_bps``,
``delay_*``, ...) and the explicit overrides table, then flow through
assignments — so ``d = t1 - t0; total = d + wire_bytes`` is caught even
though no single line mixes suffixes.

* **U501** — arithmetic or comparison mixing incompatible dimensions
  (seconds + bytes, ``delay_s < n_bytes``, mbps + bps).
* **U502** — adding or multiplying two absolute sim-timestamps;
  subtracting them (a duration) is the only meaningful combination.
* **U503** — a function whose name declares a dimension (``*_s``,
  ``*_bps``, ``*_bytes``, ``*_ratio``) returns a value of a
  conflicting inferred dimension.
* **U504** — missing ``* 8.0`` byte->bit conversion: dividing bytes by
  a bps rate, or storing a bytes-per-second value in a ``*_bps`` name.
* **U505** — assigning (or passing as a keyword argument) a value whose
  inferred dimension conflicts with the dimension the target name
  declares.

All reports require both sides to have *known* dimensions; anything the
algebra does not model evaluates to unknown and stays silent, keeping
the rules conservative.  The five rules share one pass,
:func:`check_units`, run once per file by
:func:`repro.lint.dataflow.flow_findings`.
"""

from __future__ import annotations

import ast
from typing import Callable, List, Optional, Tuple

from repro.lint import dimensions as dims
from repro.lint.dataflow import (
    Env,
    ForwardAnalysis,
    iter_shallow_exprs,
    transfer_assignments,
)
from repro.lint.modinfo import ModuleInfo
from repro.lint.registry import FlowRule, register

Report = Optional[Callable[[ast.AST, str, str], None]]

_OP_NAMES = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mult",
    ast.Div: "div", ast.FloorDiv: "div", ast.Mod: "mod",
}

#: Calls whose result keeps the dimension of their first argument.
_PASSTHROUGH_CALLS = frozenset({
    "abs", "float", "round", "int", "ceil", "floor", "fabs", "copysign",
})

_ERROR_RULES = {"mix": "U501", "timestamp": "U502", "bytes_per_bps": "U504"}

_ERROR_MESSAGES = {
    "mix": "arithmetic mixes incompatible dimensions ({left} and {right})",
    "timestamp": (
        "{op} two absolute sim-timestamps is meaningless; only their "
        "difference (a duration in seconds) is"
    ),
    "bytes_per_bps": (
        "bytes divided by a bps rate: missing the * 8.0 byte->bit "
        "conversion (write wire_bytes * 8.0 / rate_bps)"
    ),
}


def _literal_value(node: ast.expr) -> object:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        if isinstance(inner, (int, float)):
            return -inner
    return None


class DimensionAnalysis(ForwardAnalysis):
    """Forward dimension propagation over one function CFG."""

    # -- lattice --------------------------------------------------------------

    def join_values(self, a, b):
        return dims.join(a, b)

    # -- expression evaluation ------------------------------------------------

    def evaluate(self, node: ast.expr, env: Env, report: Report = None) -> Optional[str]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return dims.SCALAR
            return None
        if isinstance(node, ast.Name):
            flow = env.get(node.id)
            if flow is not None:
                return flow
            return dims.dimension_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.evaluate(node.value, env, report)
            return dims.dimension_of_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env, report)
        if isinstance(node, ast.UnaryOp):
            operand = self.evaluate(node.operand, env, report)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return operand
            return None
        if isinstance(node, ast.Compare):
            self._eval_compare(node, env, report)
            return None
        if isinstance(node, ast.BoolOp):
            values = [self.evaluate(operand, env, report) for operand in node.values]
            value = values[0]
            for other in values[1:]:
                value = dims.join(value, other)
            return value
        if isinstance(node, ast.IfExp):
            self.evaluate(node.test, env, report)
            body = self.evaluate(node.body, env, report)
            orelse = self.evaluate(node.orelse, env, report)
            return dims.join(body, orelse)
        if isinstance(node, ast.NamedExpr):
            value = self.evaluate(node.value, env, report)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, report)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for element in node.elts:
                self.evaluate(element, env, report)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.evaluate(key, env, report)
            for value in node.values:
                self.evaluate(value, env, report)
            return None
        if isinstance(node, ast.Subscript):
            self.evaluate(node.value, env, report)
            return None
        if isinstance(node, (ast.Starred, ast.Await)):
            return self.evaluate(node.value, env, report)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            inner = dict(env)
            for generator in node.generators:
                self.evaluate(generator.iter, inner, report)
                for name in _comp_names(generator.target):
                    inner[name] = None
                for condition in generator.ifs:
                    self.evaluate(condition, inner, report)
            if isinstance(node, ast.DictComp):
                self.evaluate(node.key, inner, report)
                self.evaluate(node.value, inner, report)
            else:
                self.evaluate(node.elt, inner, report)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.evaluate(value.value, env, report)
            return None
        # Lambdas (separate scope), yields, slices, ... : unknown.
        return None

    def _eval_binop(self, node: ast.BinOp, env: Env, report: Report) -> Optional[str]:
        left = self.evaluate(node.left, env, report)
        right = self.evaluate(node.right, env, report)
        op = _OP_NAMES.get(type(node.op))
        if op is None:
            return None
        result, error = dims.combine(
            op, left, right,
            right_literal=_literal_value(node.right),
            left_literal=_literal_value(node.left),
        )
        if error is not None and report is not None:
            message = _ERROR_MESSAGES[error].format(
                left=left, right=right,
                op="adding" if op == "add" else "multiplying",
            )
            report(node, _ERROR_RULES[error], message)
        return result

    def _eval_compare(self, node: ast.Compare, env: Env, report: Report) -> None:
        operands = [node.left] + list(node.comparators)
        values = [self.evaluate(operand, env, report) for operand in operands]
        for op, left, right in zip(node.ops, values, values[1:]):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                continue
            if left is None or right is None:
                continue
            if dims.compatible(left, right) or dims.compatible(right, left):
                continue
            if report is not None:
                report(
                    node, "U501",
                    f"comparison mixes incompatible dimensions "
                    f"({left} and {right})",
                )

    def _eval_call(self, node: ast.Call, env: Env, report: Report) -> Optional[str]:
        arg_values = [self.evaluate(arg, env, report) for arg in node.args]
        for keyword in node.keywords:
            value = self.evaluate(keyword.value, env, report)
            if keyword.arg is None or value is None:
                continue
            declared = dims.dimension_of_name(keyword.arg)
            if declared is None:
                continue
            if not dims.compatible(declared, value):
                if report is not None:
                    rule, message = _mismatch(keyword.arg, declared, value)
                    report(keyword.value, rule, message)

        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            self.evaluate(func.value, env, report)
            name = func.attr
        if name == "bytes_to_bits":
            return dims.BITS
        if name == "bits_to_bytes":
            return dims.BYTES
        if name in _PASSTHROUGH_CALLS and arg_values:
            return arg_values[0]
        if name in ("min", "max") and arg_values:
            known = {v for v in arg_values if v not in (None, dims.SCALAR)}
            if len(known) == 1:
                return known.pop()
            return None
        return None

    # -- transfer -------------------------------------------------------------

    def transfer(self, stmt: ast.stmt, env: Env, report: Report = None) -> None:
        if isinstance(stmt, ast.AugAssign):
            self._transfer_augassign(stmt, env, report)
            return
        if isinstance(stmt, ast.Assign):
            value = self.evaluate(stmt.value, env, report)
            for target in stmt.targets:
                self._check_target(target, value, env, report)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.evaluate(stmt.value, env, report)
                self._check_target(stmt.target, value, env, report)
            return
        for expression in iter_shallow_exprs(stmt):
            self.evaluate(expression, env, report)
        transfer_assignments(stmt, env, lambda e, v: None)

    def _transfer_augassign(self, stmt: ast.AugAssign, env: Env, report: Report) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            left = env.get(target.id) or dims.dimension_of_name(target.id)
        elif isinstance(target, ast.Attribute):
            left = dims.dimension_of_name(target.attr)
        else:
            left = None
        right = self.evaluate(stmt.value, env, report)
        op = _OP_NAMES.get(type(stmt.op))
        result: Optional[str] = None
        if op is not None:
            result, error = dims.combine(
                op, left, right, right_literal=_literal_value(stmt.value),
            )
            if error is not None and report is not None:
                message = _ERROR_MESSAGES[error].format(
                    left=left, right=right,
                    op="adding" if op == "add" else "multiplying",
                )
                report(stmt, _ERROR_RULES[error], message)
        if isinstance(target, ast.Name):
            env[target.id] = result

    def _check_target(
        self, target: ast.expr, value: Optional[str], env: Env, report: Report,
    ) -> None:
        """Bind + dimension-check one assignment target."""
        if isinstance(target, ast.Name):
            declared = dims.dimension_of_name(target.id)
            if (declared is not None and value is not None
                    and not dims.compatible(declared, value)
                    and report is not None):
                rule, message = _mismatch(target.id, declared, value)
                report(target, rule, message)
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            declared = dims.dimension_of_name(target.attr)
            if (declared is not None and value is not None
                    and not dims.compatible(declared, value)
                    and report is not None):
                rule, message = _mismatch(target.attr, declared, value)
                report(target, rule, message)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                self._check_target(element, None, env, report)


def _mismatch(name: str, declared: str, actual: str) -> Tuple[str, str]:
    """Rule id + message for a declared-vs-inferred dimension conflict."""
    if actual == dims.BYTES_PER_S and declared in (dims.BPS, dims.SCALED_RATE):
        return "U504", (
            f"'{name}' declares {declared} but receives bytes/second; "
            f"missing the * 8.0 byte->bit conversion"
        )
    return "U505", (
        f"'{name}' declares dimension {declared} but receives a value "
        f"inferred as {actual}"
    )


def _comp_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_comp_names(element))
        return names
    return []


def check_units(module: ModuleInfo, report: Report) -> None:
    """The U-family pass: dimension analysis over every CFG in ``module``."""
    for cfg in module.function_cfgs():
        analysis = DimensionAnalysis()
        declared_return = dims.dimension_of_name(cfg.name) \
            if cfg.name != "<module>" else None

        def check_stmt(stmt: ast.stmt, env: Env) -> None:
            if isinstance(stmt, ast.Return) and stmt.value is not None \
                    and declared_return is not None:
                value = analysis.evaluate(stmt.value, dict(env), report)
                if value is not None and not dims.compatible(declared_return, value):
                    rule, message = _mismatch(cfg.name, declared_return, value)
                    # U504 (missing conversion) stays U504; every other
                    # declared-vs-inferred conflict on a return is U503.
                    if rule == "U505":
                        rule = "U503"
                    report(stmt, rule,
                           message.replace("declares dimension",
                                           "declares return dimension"))
                return
            analysis.transfer(stmt, dict(env), report)

        analysis.report_pass(cfg, check_stmt)


class _UnitRule(FlowRule):
    family = staticmethod(check_units)


@register
class IncompatibleDimensionsRule(_UnitRule):
    id = "U501"
    name = "incompatible-dimensions"
    description = (
        "arithmetic or comparison mixing incompatible physical "
        "dimensions (seconds + bytes, delay_s < n_bytes, mbps + bps), "
        "propagated flow-sensitively through assignments"
    )


@register
class TimestampArithmeticRule(_UnitRule):
    id = "U502"
    name = "timestamp-arithmetic"
    description = (
        "adding or multiplying two absolute sim-timestamps; only their "
        "difference (a duration) is dimensionally meaningful"
    )


@register
class ReturnDimensionRule(_UnitRule):
    id = "U503"
    name = "declared-return-dimension"
    description = (
        "function name declares a dimension (*_s, *_bps, *_bytes, "
        "*_ratio) but a return statement yields a conflicting inferred "
        "dimension"
    )


@register
class ByteBitConversionRule(_UnitRule):
    id = "U504"
    name = "missing-byte-bit-conversion"
    description = (
        "bytes divided by a bps rate, or a bytes-per-second value "
        "stored in a *_bps name: the * 8.0 byte->bit conversion is "
        "missing"
    )


@register
class DeclaredDimensionAssignRule(_UnitRule):
    id = "U505"
    name = "declared-dimension-assignment"
    description = (
        "assignment or keyword argument whose value's inferred "
        "dimension conflicts with the dimension the target name "
        "declares by suffix convention"
    )
