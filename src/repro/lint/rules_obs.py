"""O-rules: observability purity.

Telemetry (``repro.obs``) is the one subsystem importable from every
layer, which is only safe while it stays inert: it may not reach back
into the simulation, and call sites must be guarded so that *disabled*
telemetry costs no RNG draws, no event-loop activity, and no allocated
metric families.

* **O201** — a ``repro.obs`` module imports anything outside
  ``repro.util``/``repro.obs``.
* **O202** — ``repro.obs`` imports ``repro.util.rng`` or
  ``repro.netsim.events`` specifically (even lazily): telemetry must
  never consume experiment RNG or schedule simulation events.
* **O203** — an instrumentation call site in a simulation package uses
  ``obs.active().metrics``/``tracer``/``profiler``/``causes``/``health``
  without the guard pattern (bind the telemetry handle, test
  ``.enabled`` / ``.metrics_on`` / ``.tracing_on`` before touching
  registries).
* **O204** — a cause-emission site (``<telemetry>.causes.add(...)``) in
  a simulation package passes a first argument that is not a string
  literal from the :data:`repro.obs.causes.CAUSE_HELP` taxonomy.
  Dynamic or off-taxonomy tags would fracture attribution reports and
  dashboards into unmergeable series.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.layers import OBS_ALLOWED_TARGETS, OBS_FORBIDDEN_MODULES, SIM_PACKAGES
from repro.lint.modinfo import ModuleInfo
from repro.lint.registry import FileRule, register
from repro.obs.causes import CAUSE_HELP

_TELEMETRY_SURFACES = ("metrics", "tracer", "profiler", "causes", "health")
_GUARD_FLAGS = ("enabled", "metrics_on", "tracing_on", "profiling_on",
                "causes_on", "health_on")


@register
class ObsImportRule(FileRule):
    id = "O201"
    name = "obs-import-purity"
    description = (
        "repro.obs may import only repro.util and repro.obs, so telemetry "
        "stays importable from every layer without dragging the "
        "simulation in"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package != "obs":
            return
        seen: Set[Tuple[int, str]] = set()
        for edge in module.imports:
            if edge.kind == "typing":
                continue
            target_package = edge.target.split(".")[1] if "." in edge.target else ""
            if target_package in OBS_ALLOWED_TARGETS:
                continue
            key = (edge.line, target_package)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                module, edge.line, 0,
                f"repro.obs imports repro.{target_package}; obs may only "
                f"import repro.util (telemetry must stay leaf-importable)",
            )


@register
class ObsForbiddenModuleRule(FileRule):
    id = "O202"
    name = "obs-rng-events-ban"
    description = (
        "repro.obs must never import repro.util.rng or "
        "repro.netsim.events — telemetry that touches the seed tree or "
        "the event loop can silently change experiment results"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package != "obs":
            return
        seen: Set[Tuple[int, str]] = set()
        for edge in module.imports:
            if edge.kind == "typing":
                continue
            for forbidden in OBS_FORBIDDEN_MODULES:
                if edge.target == forbidden or edge.target.startswith(forbidden + "."):
                    key = (edge.line, forbidden)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        module, edge.line, 0,
                        f"repro.obs imports {forbidden}; telemetry may not "
                        f"consume experiment RNG or schedule events",
                    )


def _is_obs_active_call(node: ast.expr) -> bool:
    """Match ``obs.active()`` / ``active()`` (from-imported) calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "active":
        return isinstance(func.value, ast.Name) and func.value.id == "obs"
    return isinstance(func, ast.Name) and func.id == "active"


def _walk_own_scope(func: ast.AST):
    """Walk a function body without descending into nested functions, so
    each scope is analysed exactly once."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


class _GuardVisitor(ast.NodeVisitor):
    """Chained-access scan (whole module) + per-scope guard-pattern scan."""

    def __init__(self) -> None:
        self.findings: List[Tuple[int, int, str]] = []

    def scan(self, tree: ast.Module) -> None:
        # Chained obs.active().metrics — never acceptable, anywhere.
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _TELEMETRY_SURFACES
                    and _is_obs_active_call(node.value)):
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"chained obs.active().{node.attr} allocates telemetry "
                    f"state even when disabled; bind the handle and guard "
                    f"on .enabled first",
                ))
        self.visit(tree)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, func: ast.AST) -> None:
        handles: Set[str] = set()
        guarded: Set[str] = set()
        uses: List[Tuple[str, int, int]] = []

        for node in _walk_own_scope(func):
            if isinstance(node, ast.Assign) and _is_obs_active_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        handles.add(target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.attr in _GUARD_FLAGS:
                    guarded.add(node.value.id)
                elif node.attr in _TELEMETRY_SURFACES:
                    uses.append((node.value.id, node.lineno, node.col_offset))

        for name, line, col in uses:
            if name in handles and name not in guarded:
                self.findings.append((
                    line, col,
                    f"telemetry handle '{name}' used without an enabled-guard "
                    f"in this function; test {name}.enabled (and the "
                    f"surface's _on flag) so disabled telemetry is free",
                ))


@register
class UnguardedInstrumentationRule(FileRule):
    id = "O203"
    name = "unguarded-instrumentation"
    description = (
        "instrumentation in simulation packages must bind "
        "telemetry = obs.active() and test .enabled/.metrics_on before "
        "touching .metrics/.tracer/.profiler"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package not in SIM_PACKAGES:
            return
        visitor = _GuardVisitor()
        visitor.scan(module.tree)
        for line, col, message in visitor.findings:
            yield self.finding(module, line, col, message)


def _is_causes_attribute(node: ast.expr, aliases: Set[str]) -> bool:
    """Match ``<expr>.causes`` or a name previously bound to one."""
    if isinstance(node, ast.Attribute) and node.attr == "causes":
        return True
    return isinstance(node, ast.Name) and node.id in aliases


@register
class CauseTaxonomyRule(FileRule):
    id = "O204"
    name = "cause-emission-taxonomy"
    description = (
        "cause-emission sites in simulation packages must tag delay with "
        "a string literal from the repro.obs.causes.CAUSE_HELP taxonomy "
        "so attribution reports stay mergeable across runs and layers"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package not in SIM_PACKAGES:
            return
        # Names bound to a cause collector (``causes = telemetry.causes``)
        # anywhere in the module; collector handles are short-lived
        # locals, so a module-wide alias set stays precise enough.
        aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "causes"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and _is_causes_attribute(node.func.value, aliases)):
                continue
            if not node.args:
                continue
            tag = node.args[0]
            if not (isinstance(tag, ast.Constant) and isinstance(tag.value, str)):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "cause tag must be a string literal (dynamic tags "
                    "fracture the attribution taxonomy)",
                )
            elif tag.value not in CAUSE_HELP:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"cause tag {tag.value!r} is not in the "
                    f"repro.obs.causes.CAUSE_HELP taxonomy; add it there "
                    f"(with help text) or use an existing tag",
                )
