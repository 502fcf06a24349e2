"""The design documents cite only what exists and runs.

Two checks over DESIGN.md, README.md and EXPERIMENTS.md:

* every repository path cited in backticks (``src/``, ``tests/``,
  ``benchmarks/``, ``perfbench/``, ``examples/``) matches at least one
  file or directory, globs included, and the node of a ``path::node``
  citation is a ``def`` or ``class`` in that file;
* every module in a DESIGN §3 "Implementing modules" cell is in the
  static import closure of that row's bench target, so a figure's row
  names only code the figure runs.
"""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
CITED_ROOTS = ("src/", "tests/", "benchmarks/", "perfbench/", "examples/")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")


def _spans(text):
    """Inline code spans outside fenced blocks."""
    return _SPAN.findall(_FENCE.sub("", text))


def _path_citations():
    for doc in DOCS:
        for span in _spans((ROOT / doc).read_text(encoding="utf-8")):
            if span.startswith(CITED_ROOTS) and " " not in span:
                yield doc, span


def _defines(body, names):
    """Whether ``names`` is a chain of nested defs/classes in ``body``."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == names[0]):
            return len(names) == 1 or _defines(node.body, names[1:])
    return False


CITATIONS = sorted(set(_path_citations()))


@pytest.mark.parametrize("doc,citation", CITATIONS,
                         ids=[f"{doc}:{citation}" for doc, citation in CITATIONS])
def test_cited_path_exists(doc, citation):
    path, *nodes = citation.split("::")
    matches = list(ROOT.glob(path.rstrip("/")))
    assert matches, f"{doc} cites {citation}, which matches no file"
    if nodes:
        tree = ast.parse(matches[0].read_text(encoding="utf-8"))
        assert _defines(tree.body, nodes), f"{doc} cites {citation}: no such def or class"


def _module_file(name):
    """The source file of a ``repro`` module, or None."""
    base = ROOT / "src" / pathlib.Path(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def _imported_names(path, module):
    """Every module an import statement in ``path`` may load."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            names.append(target)
            names.extend(f"{target}.{alias.name}" for alias in node.names)
    return tuple(names)


def import_closure(path):
    """The ``repro`` modules importing ``path`` loads, with their parents."""
    seen = set()
    stack = [(path, "")]
    while stack:
        source, module = stack.pop()
        for name in _imported_names(source, module):
            parts = name.split(".")
            for depth in range(1, len(parts) + 1):
                prefix = ".".join(parts[:depth])
                found = prefix.startswith("repro") and _module_file(prefix)
                if found and prefix not in seen:
                    seen.add(prefix)
                    stack.append((found, prefix))
    return seen


def _design_rows():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines()
            if line.startswith("|") and not line.startswith("|---")]
    header = [cell.strip() for cell in rows[0]]
    modules_at = header.index("Implementing modules")
    target_at = header.index("Bench target")
    for row in rows[1:]:
        target = _spans(row[target_at])[0].split("::")[0]
        yield row[0].strip(), _spans(row[modules_at]), target


DESIGN_ROWS = list(_design_rows())


@pytest.mark.parametrize("experiment,modules,target", DESIGN_ROWS,
                         ids=[row[0] for row in DESIGN_ROWS])
def test_design_modules_run_in_their_bench(experiment, modules, target):
    closure = import_closure(ROOT / target)
    missing = [m for m in modules if f"repro.{m}" not in closure]
    assert not missing, (
        f"DESIGN §3 {experiment}: {target} never imports {', '.join(missing)}"
    )
