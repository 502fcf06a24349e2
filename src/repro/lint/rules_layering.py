"""L-rules: architecture layering over the extracted import graph.

The manifest in :mod:`repro.lint.layers` declares the package DAG; these
rules extract the *actual* top-level import graph from the AST and diff
the two:

* **L301** — upward import: a module top-level imports a package of
  equal or higher rank.  (``if TYPE_CHECKING:`` imports and imports
  inside function bodies are exempt — they cannot create import-time
  cycles and are the sanctioned escape hatch.)
* **L302** — an import cycle among ``repro`` modules (strongly
  connected component of the top-level import graph).
* **L303** — a package absent from the layers manifest: new packages
  must be placed in the DAG in the same PR that adds them.
* **L304** — ``multiprocessing``/``concurrent.futures`` imported outside
  the declared process-pool modules (``layers.PROCESS_POOL_MODULES``);
  worker fan-out lives behind ``repro.core.parallel`` only, where serial
  sampling, hermetic tasks, and index-ordered merges keep parallel runs
  bit-identical to serial ones.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.layers import PROCESS_POOL_MODULES, RANKS, edge_allowed, rank_of
from repro.lint.modinfo import ModuleInfo
from repro.lint.registry import FileRule, ProjectRule, register


def _package_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else ""


def build_import_graph(modules: List[ModuleInfo]) -> Dict[str, Dict[str, int]]:
    """Top-level import edges between *known* repro modules.

    Returns ``{module: {imported_module: first_line}}``.  Edge targets
    that do not correspond to a linted module (attribute imports, e.g.
    ``from repro.core.qoe import stall_ratio`` emitting the candidate
    ``repro.core.qoe.stall_ratio``) are dropped.
    """
    known = {m.module for m in modules if m.in_repro}
    graph: Dict[str, Dict[str, int]] = {}
    for module in modules:
        if not module.in_repro:
            continue
        edges = graph.setdefault(module.module, {})
        for edge in module.imports:
            if edge.kind != "toplevel":
                continue
            if edge.target in known and edge.target != module.module:
                edges.setdefault(edge.target, edge.line)
    return graph


def _strongly_connected(graph: Dict[str, Dict[str, int]]) -> List[List[str]]:
    """Tarjan's SCC; returns components with more than one member."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan: (node, edge iterator) frames.
        work = [(node, iter(sorted(graph.get(node, {}))))]
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, edges = work[-1]
            advanced = False
            for successor in edges:
                if successor not in graph:
                    continue
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph.get(successor, {})))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components


@register
class UpwardImportRule(ProjectRule):
    id = "L301"
    name = "upward-import"
    description = (
        "top-level import against the declared layer DAG (see "
        "repro/lint/layers.py); higher layers may import lower ones, "
        "never the reverse"
    )

    def check_project(self, modules: List[ModuleInfo]) -> Iterator[Finding]:
        for module in modules:
            if not module.in_repro:
                continue
            importer = module.package
            seen: Set[Tuple[int, str]] = set()
            for edge in module.imports:
                if edge.kind != "toplevel":
                    continue
                target = _package_of(edge.target)
                if edge_allowed(importer, target):
                    continue
                key = (edge.line, target)
                if key in seen:
                    continue
                seen.add(key)
                importer_rank = rank_of(importer)
                target_rank = rank_of(target)
                yield self.finding(
                    module, edge.line, 0,
                    f"upward import: {module.module} (layer '{importer}', "
                    f"rank {importer_rank}) imports repro.{target} (rank "
                    f"{target_rank}); invert the dependency, move the "
                    f"shared type down, or defer the import into the "
                    f"function that needs it",
                )


@register
class ImportCycleRule(ProjectRule):
    id = "L302"
    name = "import-cycle"
    description = (
        "strongly connected component in the top-level import graph; "
        "cycles make import order load-bearing and break layering"
    )

    def check_project(self, modules: List[ModuleInfo]) -> Iterator[Finding]:
        by_name = {m.module: m for m in modules if m.in_repro}
        graph = build_import_graph(modules)
        for component in _strongly_connected(graph):
            members = set(component)
            cycle = " -> ".join(component + [component[0]])
            for name in component:
                module = by_name[name]
                line = min(
                    (graph[name][target] for target in graph[name] if target in members),
                    default=1,
                )
                yield self.finding(
                    module, line, 0,
                    f"import cycle: {cycle}; break it with a deferred "
                    f"(function-scope) import or by moving shared types down",
                )


@register
class UndeclaredPackageRule(ProjectRule):
    id = "L303"
    name = "undeclared-package"
    description = (
        "package missing from the layers manifest "
        "(repro/lint/layers.py RANKS); every package must have a "
        "declared rank in the architecture DAG"
    )

    def check_project(self, modules: List[ModuleInfo]) -> Iterator[Finding]:
        reported: Set[str] = set()
        for module in sorted(modules, key=lambda m: m.path):
            if not module.in_repro:
                continue
            package = module.package
            if package == "" or package in RANKS or package in reported:
                continue
            reported.add(package)
            yield self.finding(
                module, 1, 0,
                f"package repro.{package} has no rank in "
                f"repro/lint/layers.py; declare where it sits in the "
                f"layer DAG",
            )


_POOL_MODULES = ("multiprocessing", "concurrent")


@register
class ProcessPoolConfinementRule(FileRule):
    id = "L304"
    name = "process-pool-confinement"
    description = (
        "multiprocessing / concurrent.futures imported outside the "
        "declared process-pool modules (repro/lint/layers.py "
        "PROCESS_POOL_MODULES); route worker fan-out through "
        "repro.core.parallel so parallel runs stay bit-identical"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.module in PROCESS_POOL_MODULES:
            return
        for node in ast.walk(module.tree):
            imported: List[Tuple[int, str]] = []
            if isinstance(node, ast.Import):
                imported = [
                    (node.lineno, alias.name)
                    for alias in node.names
                    if alias.name.split(".")[0] in _POOL_MODULES
                ]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if node.module.split(".")[0] in _POOL_MODULES:
                    imported = [(node.lineno, node.module)]
            for line, name in imported:
                yield self.finding(
                    module, line, 0,
                    f"import of {name!r} outside the declared process-pool "
                    f"modules; spawn workers via repro.core.parallel, which "
                    f"preserves determinism (serial sampling, seeded "
                    f"bootstrap, ordered merge)",
                )
