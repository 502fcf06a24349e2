"""Guard against code that only tests call.

Collects the top-level functions and classes of ``src/repro`` (outside
``lint``) and the non-dunder methods of those classes, then finds which
of them the shipped program reaches: code in ``src/``, ``examples/``,
``benchmarks/`` and ``perfbench/``, starting from module-level code and
growing to a fixpoint through the bodies of reached definitions.

A reference is a ``Name``, an ``Attribute``, an import alias inside a
body, or a word of a string constant that holds no whitespace (a dotted
path, a ``getattr`` name, a metric name) and is not a docstring.  A
module-level import only binds a name, so it counts through that name's
uses, or as a reference when it renames.  Names are matched without
their owner, so the scan can miss dead code but does not flag code the
program runs.  ``__init__`` re-exports and ``__all__`` do not count.

Every definition left unreached must be listed in ``KEPT`` with the
reason it stays.

A second scan covers the module-level imports of the same modules
(``__init__`` re-exports aside).  An import is read when its module
uses the bound name (a ``Name``, or a word of a non-docstring string
constant, as a forward reference is) or when some module under
``src/``, ``examples/``, ``benchmarks/``, ``perfbench/`` or ``tests/``
imports that name from it.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
REFERRING_DIRS = ("src", "examples", "benchmarks", "perfbench")
IMPORTING_DIRS = REFERRING_DIRS + ("tests",)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_WINDOW = "read-only window that tests use to check live state"
_CAPTURE = "capture pipeline that ROADMAP item 6 will prove or delete"

KEPT: Dict[str, str] = {
    "repro.service.world:ServiceWorld.live_count": _WINDOW,
    "repro.service.world:ServiceWorld.live_broadcasts": _WINDOW,
    "repro.netsim.connection:Connection.backlog_bytes": _WINDOW,
    "repro.netsim.connection:Connection.bytes_delivered": _WINDOW,
    "repro.netsim.connection:Connection.in_flight_bytes": _WINDOW,
    "repro.player.buffer:PlayoutBuffer.buffered_until": _WINDOW,
    "repro.player.buffer:PlayoutBuffer.playing": _WINDOW,
    "repro.protocols.hls:LiveWindow.newest_sequence": _WINDOW,
    "repro.protocols.http:HttpClient.outstanding": _WINDOW,
    "repro.obs.tracing:Tracer.find": _WINDOW,
    "repro.obs.tracing:Tracer.children_of": _WINDOW,
    "repro.netsim.link:Link.utilization_until_now": (
        "exposes the busy-time accounting behind the link.utilization_bounded "
        "health check"
    ),
    "repro.netsim.link:Link.queue_delay_now": (
        "exposes the busy-time accounting behind the link.utilization_bounded "
        "health check"
    ),
    "repro.campaign.store:CampaignStore.blob_addresses": _WINDOW,
    "repro.capture.inspector:qp_bitrate_points": _CAPTURE,
    "repro.capture.reconstruct:ReassembledStream.average_rate_bps": _CAPTURE,
    "repro.capture.reconstruct:classify_flows": _CAPTURE,
    "repro.capture.reconstruct:extract_hls_segments": _CAPTURE,
    "repro.capture.reconstruct:extract_rtmp_frames": _CAPTURE,
    "repro.core.testbed:SessionTestbed.start_capture": _CAPTURE,
    "repro.netsim.trace:TraceCapture.byterate_bps": _CAPTURE,
    "repro.netsim.trace:TraceCapture.data_records": _CAPTURE,
    "repro.netsim.trace:TraceCapture.filter": _CAPTURE,
    "repro.netsim.trace:TraceCapture.flows": _CAPTURE,
    "repro.protocols.rtmp:ChunkParser": _CAPTURE,
    "repro.protocols.rtmp:media_frame_of": _CAPTURE,
    "repro.protocols.rtmp:chunk_message": _CAPTURE,
    "repro.protocols.rtmp:video_message": _CAPTURE,
    "repro.protocols.rtmp:audio_message": _CAPTURE,
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _references(nodes: List[ast.AST], docstrings: Set[int]) -> Set[str]:
    """Identifier references in ``nodes``, minus ``__all__``."""
    found: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and not any(char.isspace() for char in node.value)
        ):
            found.update(WORD.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _split(tree: ast.Module, module: str) -> Iterator[Tuple[str, str, List[ast.AST]]]:
    """Yield ``(key, name, body nodes)`` per definition, then the rest as root."""
    outside: List[ast.AST] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            outside.extend(alias for alias in stmt.names if alias.asname)
            continue
        if not _is_def(stmt):
            outside.append(stmt)
            continue
        own: List[ast.AST] = []
        if isinstance(stmt, ast.ClassDef):
            own.extend(stmt.bases + stmt.keywords + stmt.decorator_list)
            for member in stmt.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("__")
                ):
                    key = f"{module}:{stmt.name}.{member.name}"
                    yield key, member.name, [member]
                else:
                    own.append(member)
        else:
            own.append(stmt)
        yield f"{module}:{stmt.name}", stmt.name, own
    yield "", "", outside


def unreached_definitions() -> Dict[str, str]:
    """Map each definition the program never reaches to its bare name."""
    bodies: Dict[str, Set[str]] = {}
    names: Dict[str, str] = {}
    live: Set[str] = set()
    for top in REFERRING_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = _docstring_nodes(tree)
            parts = path.relative_to(ROOT).parts
            collected = parts[:2] == ("src", "repro") and parts[2] != "lint"
            module = _module_name(path) if collected else ""
            for key, name, nodes in _split(tree, module):
                refs = _references(nodes, docstrings)
                if not key or not collected:
                    live |= refs
                else:
                    bodies[key] = refs
                    names[key] = name
    pending = set(names)
    while True:
        reached = {key for key in pending if names[key] in live}
        if not reached:
            return {key: names[key] for key in sorted(pending)}
        pending -= reached
        for key in reached:
            live |= bodies[key]


def test_every_definition_is_reached_or_kept():
    unreached = unreached_definitions()
    unexplained = sorted(key for key in unreached if key not in KEPT)
    assert not unexplained, (
        "definitions that only tests reach; delete them, move them into "
        "the tests, or add them to KEPT with a reason:\n  "
        + "\n  ".join(unexplained)
    )


def test_kept_entries_are_still_unreached():
    unreached = unreached_definitions()
    stale = sorted(key for key in KEPT if key not in unreached)
    assert not stale, (
        "KEPT entries that are gone or now reached by the program; drop them:\n  "
        + "\n  ".join(stale)
    )


def _bound_names(stmt: ast.AST) -> Iterator[str]:
    for alias in stmt.names:
        if alias.name != "*":
            yield alias.asname or alias.name.split(".")[0]


def unread_imports() -> List[str]:
    """``module:name`` per module-level import that nothing reads."""
    imported_from: Set[Tuple[str, str]] = set()
    for top in IMPORTING_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module:
                    imported_from.update((node.module, a.name) for a in node.names)
    unread: List[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py" or path.relative_to(PACKAGE).parts[0] == "lint":
            continue
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstring_nodes(tree)
        read: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                read.update(WORD.findall(node.value))
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            ):
                unread.extend(
                    f"{module}:{name}"
                    for name in _bound_names(stmt)
                    if name not in read and (module, name) not in imported_from
                )
    return unread


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, (
        "module-level imports that nothing reads; delete them:\n  "
        + "\n  ".join(unread)
    )
