"""R-rules: RNG-taint analysis.

The bit-identity guarantee (telemetry on/off, workers 1/2/4, replayed
traces) holds because every random stream derives from the experiment
seed through ``repro.util.rng`` and because *no* RNG draw depends on
telemetry state.  These rules are the static counterpart of the
bit-identity tests: the dataflow engine taints values originating at
RNG sources (``make_rng``/``child_rng``/``SeedSequence.rng``/
``random.Random``/``rng``-named parameters) and checks how tainted
values are consumed.

* **R601** — ``.seed(...)`` / ``.setstate(...)`` called on an
  RNG-tainted value outside ``repro.util.rng``: re-seeding a derived
  stream collapses the independence ``child_rng`` guarantees.
* **R602** — an RNG draw control-dependent on telemetry enable state
  (``metrics_enabled``, ``causes_enabled``, ``tracing_on``,
  ``telemetry.enabled``, ...): the draw (or its absence) shifts every
  later consumer of the stream, so results with telemetry on would
  diverge from results with it off.  Both branches of such an ``if``
  are control-dependent and both are checked.
* **R603** — an RNG-tainted value escaping to a module global (a
  module-level RNG singleton, or ``global x; x = rng``) outside
  ``repro.util.rng``: hidden shared streams make draw order
  load-bearing across call sites.

The three rules share one pass, :func:`check_rng`, run once per file by
:func:`repro.lint.dataflow.flow_findings`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.dataflow import (
    Env,
    ForwardAnalysis,
    Report,
    iter_shallow_exprs,
    transfer_assignments,
)
from repro.lint.modinfo import ModuleInfo
from repro.lint.registry import FlowRule, register
from repro.lint.rules_determinism import _RANDOM_MODULE_FUNCS

#: The abstract "this value is (derived from) a random.Random" tag.
RNG = "rng"

#: Functions/methods that *produce* an RNG.
_RNG_FACTORY_NAMES = frozenset({"make_rng", "child_rng"})
_RNG_CLASS_NAMES = frozenset({"Random", "SystemRandom"})

#: Methods that consume stream state (a draw).
DRAW_METHODS = frozenset(_RANDOM_MODULE_FUNCS - {"seed"})

#: Methods that rewrite stream state wholesale.
RESEED_METHODS = frozenset({"seed", "setstate"})

#: Telemetry enable flags an RNG draw may never be gated on.  These are
#: the O203 guard flags plus the StudyConfig spellings.
TELEMETRY_GUARD_NAMES = frozenset({
    "metrics_enabled", "causes_enabled", "health_enabled",
    "tracing_enabled", "profiling_enabled",
    "metrics_on", "tracing_on", "causes_on", "health_on", "profiling_on",
})

#: Receivers whose bare ``.enabled`` attribute counts as telemetry state.
_TELEMETRY_RECEIVERS = frozenset({"telemetry", "obs", "tele"})


def _name_is_rng(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


class RngTaintAnalysis(ForwardAnalysis):
    """May-taint: a variable maps to :data:`RNG` when any path binds it
    to an RNG-derived value."""

    def join_values(self, a, b):
        return RNG if RNG in (a, b) else None

    def evaluate(self, node: ast.expr, env: Env) -> Optional[str]:
        if isinstance(node, ast.Name):
            if env.get(node.id) == RNG:
                return RNG
            return RNG if _name_is_rng(node.id) else None
        if isinstance(node, ast.Attribute):
            return RNG if _name_is_rng(node.attr) else None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in _RNG_FACTORY_NAMES or func.id in _RNG_CLASS_NAMES:
                    return RNG
            elif isinstance(func, ast.Attribute):
                if func.attr in _RNG_FACTORY_NAMES or func.attr in _RNG_CLASS_NAMES:
                    return RNG
                if func.attr == "rng":
                    return RNG  # SeedSequence.rng(...)
            return None
        if isinstance(node, ast.NamedExpr):
            value = self.evaluate(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, ast.IfExp):
            body = self.evaluate(node.body, env)
            orelse = self.evaluate(node.orelse, env)
            return self.join_values(body, orelse)
        return None

    def transfer(self, stmt: ast.stmt, env: Env) -> None:
        for expression in iter_shallow_exprs(stmt):
            for walrus in ast.walk(expression):
                if isinstance(walrus, ast.NamedExpr):
                    self.evaluate(walrus, env)
        transfer_assignments(stmt, env, self.evaluate)


def _guarded_regions(func: ast.AST) -> Dict[int, str]:
    """Map node id -> guard flag for every node inside a branch whose
    condition references telemetry enable state."""
    guarded: Dict[int, str] = {}
    for node in ast.walk(func):
        test: Optional[ast.expr] = None
        branches: List[ast.AST] = []
        if isinstance(node, (ast.If, ast.While)):
            test = node.test
            branches = list(node.body) + list(node.orelse)
        elif isinstance(node, ast.IfExp):
            test = node.test
            branches = [node.body, node.orelse]
        if test is None:
            continue
        flag = _telemetry_flag_in(test)
        if flag is None:
            continue
        for branch in branches:
            for inner in ast.walk(branch):
                guarded.setdefault(id(inner), flag)
    return guarded


def _telemetry_flag_in(test: ast.expr) -> Optional[str]:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in TELEMETRY_GUARD_NAMES:
            return node.id
        if isinstance(node, ast.Attribute):
            if node.attr in TELEMETRY_GUARD_NAMES:
                return node.attr
            if node.attr == "enabled" and isinstance(node.value, ast.Name) \
                    and (node.value.id in _TELEMETRY_RECEIVERS
                         or node.value.id.startswith("tele")):
                return f"{node.value.id}.enabled"
    return None


def _global_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def check_rng(module: ModuleInfo, report: Report) -> None:
    """The R-family pass: RNG-taint analysis over every CFG in ``module``."""
    in_rng_module = module.module == "repro.util.rng"
    for cfg in module.function_cfgs():
        analysis = RngTaintAnalysis()
        is_module_body = cfg.name == "<module>"
        guarded = {} if is_module_body else _guarded_regions(cfg.node)
        globals_here = set() if is_module_body else _global_names(cfg.node)

        def check_stmt(stmt: ast.stmt, env: Env) -> None:
            # R603: RNG escaping to module scope.
            if isinstance(stmt, ast.Assign) and not in_rng_module:
                if analysis.evaluate(stmt.value, dict(env)) == RNG:
                    for target in stmt.targets:
                        if not isinstance(target, ast.Name):
                            continue
                        if is_module_body or target.id in globals_here:
                            report(
                                stmt, "R603",
                                f"RNG-derived value stored in module global "
                                f"'{target.id}'; hidden shared streams make "
                                f"draw order load-bearing — derive streams "
                                f"locally via repro.util.rng.child_rng",
                            )
            # R601 / R602: method calls on tainted receivers.
            for expression in iter_shallow_exprs(stmt):
                for node in ast.walk(expression):
                    if not (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)):
                        continue
                    method = node.func.attr
                    if method not in DRAW_METHODS and method not in RESEED_METHODS:
                        continue
                    if analysis.evaluate(node.func.value, dict(env)) != RNG:
                        continue
                    if method in RESEED_METHODS and not in_rng_module:
                        report(
                            node, "R601",
                            f".{method}() on a derived RNG stream collapses "
                            f"the independence child_rng guarantees; create "
                            f"a fresh child stream instead",
                        )
                    elif method in DRAW_METHODS and id(node) in guarded:
                        report(
                            node, "R602",
                            f"RNG draw .{method}() is control-dependent on "
                            f"telemetry state ({guarded[id(node)]}); the "
                            f"draw must happen unconditionally or results "
                            f"diverge when telemetry toggles",
                        )

        analysis.report_pass(cfg, check_stmt)


class _RngRule(FlowRule):
    family = staticmethod(check_rng)


@register
class RngReseedRule(_RngRule):
    id = "R601"
    name = "rng-reseed"
    description = (
        ".seed()/.setstate() on an RNG stream derived from the "
        "experiment seed tree; re-seeding collapses stream independence "
        "— derive a fresh child via repro.util.rng.child_rng instead"
    )


@register
class TelemetryGatedDrawRule(_RngRule):
    id = "R602"
    name = "telemetry-gated-rng-draw"
    description = (
        "RNG draw control-dependent on a telemetry enable flag "
        "(metrics_enabled, causes_on, telemetry.enabled, ...); draws "
        "must not depend on observability state or bit-identity with "
        "telemetry off breaks"
    )


@register
class RngGlobalEscapeRule(_RngRule):
    id = "R603"
    name = "rng-module-global"
    description = (
        "RNG-derived value stored in a module-level global outside "
        "repro.util.rng; hidden module streams recreate the global-RNG "
        "hazard D102/D103 exist to prevent"
    )
