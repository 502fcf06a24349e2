"""Parsed per-module facts shared by every rule.

One :class:`ModuleInfo` per linted file: the AST, the raw source lines,
and the module's *internal* imports classified by how they execute:

* ``toplevel`` — runs at import time (module body, class bodies, and
  module-level ``if``/``try`` blocks).  These are the edges the
  layering rules reason about.
* ``typing`` — inside ``if TYPE_CHECKING:``; never executes, so it can
  never create a runtime cycle and is exempt from layering.
* ``deferred`` — inside a function body; the sanctioned escape hatch
  for breaking an import cycle, executed lazily.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.cfg import FunctionCFG

ROOT_PACKAGE = "repro"


@dataclass(frozen=True)
class ImportEdge:
    """One ``import``/``from ... import`` of a ``repro.*`` module."""

    target: str        # fully qualified module, e.g. "repro.netsim.link"
    line: int
    kind: str          # "toplevel" | "typing" | "deferred"


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one source file."""

    path: str                      # repo-relative, forward slashes
    module: str                    # dotted name, e.g. "repro.netsim.link"
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: List[ImportEdge] = field(default_factory=list)
    #: Flow-family results keyed by family, memoized by
    #: :func:`repro.lint.dataflow.flow_findings` so each family runs its
    #: dataflow fixpoint once per file per lint run.
    analysis_cache: Dict[object, object] = field(default_factory=dict)
    _cfgs: Optional[list] = field(default=None, repr=False)

    @property
    def package(self) -> str:
        """First component under ``repro`` ("" for repro/__init__ itself),
        or the first dotted component for non-repro modules ("tests")."""
        parts = self.module.split(".")
        if parts[0] == ROOT_PACKAGE:
            return parts[1] if len(parts) > 1 else ""
        return parts[0]

    @property
    def in_repro(self) -> bool:
        return self.module.split(".")[0] == ROOT_PACKAGE

    def function_cfgs(self) -> List["FunctionCFG"]:
        """CFGs for every function plus the module body, built lazily and
        cached — all flow-sensitive rule families share one build, just
        as all families share the one :func:`ast.parse`."""
        if self._cfgs is None:
            # Deferred: modinfo is the bottom of the lint package and
            # must not import siblings at module scope.
            from repro.lint.cfg import build_module_cfgs
            self._cfgs = build_module_cfgs(self.tree)
        return self._cfgs


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/netsim/link.py`` -> ``repro.netsim.link``;
    ``tests/test_foo.py`` -> ``tests.test_foo``.
    """
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    """Match ``TYPE_CHECKING`` / ``typing.TYPE_CHECKING`` conditions."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_from(
    node: ast.ImportFrom, current_module: str, is_package: bool
) -> Optional[str]:
    """Absolute dotted module a ``from ... import`` statement targets."""
    if node.level == 0:
        return node.module
    # Relative import: level=1 means "current package" — the module
    # itself for a package ``__init__``, else its parent — and each
    # further level climbs one more component.
    base = current_module.split(".")
    drop = node.level - 1 if is_package else node.level
    if drop >= len(base):
        return node.module
    anchor = base[: len(base) - drop]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor)


def _iter_imports(
    tree: ast.Module, current_module: str, is_package: bool
) -> Iterator[Tuple[str, int, str, ast.AST]]:
    """Yield (target, line, kind, node) for every repro-internal import."""

    def walk(nodes: List[ast.stmt], kind: str) -> Iterator[Tuple[str, int, str, ast.AST]]:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, node.lineno, kind, node
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_from(node, current_module, is_package)
                if target is None:
                    continue
                # ``from repro.pkg import name`` may name either an
                # attribute or a submodule — emit both candidates and let
                # graph consumers filter against the known module set.
                # ``from repro import obs`` must not emit a bare root
                # edge (the root facade re-exports from everywhere).
                if target != ROOT_PACKAGE:
                    yield target, node.lineno, kind, node
                for alias in node.names:
                    if alias.name != "*":
                        yield f"{target}.{alias.name}", node.lineno, kind, node
            elif isinstance(node, ast.If):
                branch_kind = (
                    "typing"
                    if kind == "toplevel" and _is_type_checking_test(node.test)
                    else kind
                )
                yield from walk(node.body, branch_kind)
                yield from walk(node.orelse, kind)
            elif isinstance(node, ast.Try):
                yield from walk(node.body, kind)
                for handler in node.handlers:
                    yield from walk(handler.body, kind)
                yield from walk(node.orelse, kind)
                yield from walk(node.finalbody, kind)
            elif isinstance(node, ast.ClassDef):
                # Class bodies execute at import time.
                yield from walk(node.body, kind)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node.body, "deferred")
            elif isinstance(node, (ast.With, ast.For, ast.While)):
                yield from walk(node.body, kind)
                if hasattr(node, "orelse"):
                    yield from walk(node.orelse, kind)

    yield from walk(tree.body, "toplevel")


def parse_module(rel_path: str, source: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    module = module_name_for(rel_path)
    tree = ast.parse(source, filename=rel_path)
    info = ModuleInfo(
        path=rel_path.replace("\\", "/"),
        module=module,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    is_package = info.path.rsplit("/", 1)[-1] == "__init__.py"
    for target, line, kind, _node in _iter_imports(tree, module, is_package):
        if target.split(".")[0] == ROOT_PACKAGE:
            info.imports.append(ImportEdge(target=target, line=line, kind=kind))
    return info
