"""Guard against options that no run sets.

Collects every parameter with a default of the top-level functions of
``src/repro`` (outside ``lint``) and of the methods of its top-level
classes, ``__init__`` included, with its positional index.  It then
finds the calls that pass each one, in the program (``src/``,
``examples/``, ``benchmarks/`` and ``perfbench/``) and in ``tests/``.

A call passes a parameter when it names it as a keyword or gives an
argument at its index.  Calls are matched by the bare callee name; a
call of a class counts for its ``__init__``, ``super().__init__(...)``
for the ``__init__`` of the enclosing class's bases, and
``functools.partial(f, ...)`` as a call of ``f``.  A ``*args`` or
``**kwargs`` at a call counts as passing everything.  Names are matched
without their owner, so the scan can miss an unset option but does not
flag one a run sets.

A parameter no call passes is a constant under another name.  One that
only tests pass must be listed in ``TEST_SEAMS`` with the reason it
stays.  Dataclass fields are out of scope: ``StudyConfig`` and
``CampaignSpec`` hash theirs into cell keys.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perfbench")
TEST_DIRS = ("tests",)

_SESSION_API = "public telemetry API that README \"Observability\" documents"
_CAP = "a cap that tests reach with a small value instead of a long run"
_SIZE = "run size that tests shrink to keep a figure run short"
_CAPTURE = "capture pipeline that ROADMAP item 6 will prove or delete"

TEST_SEAMS: Dict[str, str] = {
    "repro.obs:session(metrics)": _SESSION_API,
    "repro.obs:session(tracing)": _SESSION_API,
    "repro.obs:session(profiling)": _SESSION_API,
    "repro.obs:session(causes)": _SESSION_API,
    "repro.obs:session(health)": _SESSION_API,
    "repro.obs.metrics:Histogram.__init__(value_cap)": _CAP,
    "repro.obs.tracing:Tracer.__init__(max_spans)": _CAP,
    "repro.netsim.events:EventLoop.run_until(max_events)": _CAP,
    "repro.netsim.fastpath:exact_network(exact)": (
        "the identity tests' switch to the exact per-packet oracle"
    ),
    "repro.service.world:ServiceWorld.query_map(cap)": (
        "the map-query oracle property sweeps the response cap"
    ),
    "repro.netsim.link:Link.__init__(impairment)": (
        "tests impair a bare link; the testbed sets the same attribute on "
        "its tether"
    ),
    "repro.crawler.client:CrawlHarness.__init__(rate_limiter)": (
        "tests tighten the 429 bucket to see throttling in a short crawl"
    ),
    "repro.service.chat:ChatFeed.__init__(chatter_pool_size)": (
        "tests shrink the chatter pool to see names recur"
    ),
    "repro.experiments.fig7_power:run(duration_s)": _SIZE,
    "repro.experiments.sec52_codecs:run(n_streams)": _SIZE,
    "repro.experiments.sec52_codecs:run(duration_s)": _SIZE,
    "repro.protocols.rtmp:chunk_message(chunk_size)": _CAPTURE,
    "repro.protocols.rtmp:ChunkParser.__init__(chunk_size)": _CAPTURE,
    "repro.netsim.packet:PacketRecord.annotation(default)": _CAPTURE,
    "repro.netsim.trace:TraceCapture.total_bytes(include_acks)": _CAPTURE,
    "repro.netsim.trace:TraceCapture.byterate_bps(direction)": _CAPTURE,
}


class Param(NamedTuple):
    key: str
    callee: str
    name: str
    index: Optional[int]


class CallSite(NamedTuple):
    callee: str
    positional: int
    keywords: Set[str]
    passes_all: bool


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_static(func: ast.AST) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in func.decorator_list
    )


def _defaulted(func: ast.AST, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """Yield ``(name, index)`` per defaulted parameter; kw-only get no index."""
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if bound:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaulted_parameters() -> List[Param]:
    """Every defaulted parameter of ``src/repro`` outside ``lint``."""
    found: List[Param] = []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] == "lint":
            continue
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, funcs):
                for name, index in _defaulted(stmt, bound=False):
                    key = f"{module}:{stmt.name}({name})"
                    found.append(Param(key, stmt.name, name, index))
            elif isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if not isinstance(member, funcs):
                        continue
                    callee = stmt.name if member.name == "__init__" else member.name
                    bound = not _is_static(member)
                    for name, index in _defaulted(member, bound):
                        key = f"{module}:{stmt.name}.{member.name}({name})"
                        found.append(Param(key, callee, name, index))
    return found


def _bare_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_super_init(func: ast.AST) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _bare_name(func.value.func) == "super"
    )


def _site(callee: str, args: List[ast.AST], kwargs: List[ast.keyword]) -> CallSite:
    passes_all = any(isinstance(arg, ast.Starred) for arg in args) or any(
        kw.arg is None for kw in kwargs
    )
    return CallSite(callee, len(args), {kw.arg for kw in kwargs if kw.arg}, passes_all)


def _calls_in(tree: ast.Module) -> Iterator[CallSite]:
    stack: List[Tuple[ast.AST, List[str]]] = [(tree, [])]
    while stack:
        node, bases = stack.pop()
        if isinstance(node, ast.ClassDef):
            bases = [name for name in map(_bare_name, node.bases) if name]
        elif isinstance(node, ast.Call):
            if _is_super_init(node.func):
                for base in bases:
                    yield _site(base, node.args, node.keywords)
            elif _bare_name(node.func) == "partial" and node.args:
                target = _bare_name(node.args[0])
                if target:
                    yield _site(target, node.args[1:], node.keywords)
            else:
                callee = _bare_name(node.func)
                if callee:
                    yield _site(callee, node.args, node.keywords)
        stack.extend((child, bases) for child in ast.iter_child_nodes(node))


def call_sites(dirs: Tuple[str, ...]) -> Dict[str, List[CallSite]]:
    """Every call under ``dirs``, grouped by bare callee name."""
    sites: Dict[str, List[CallSite]] = {}
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for site in _calls_in(tree):
                sites.setdefault(site.callee, []).append(site)
    return sites


def _passed(param: Param, sites: Dict[str, List[CallSite]]) -> bool:
    return any(
        site.passes_all
        or param.name in site.keywords
        or (param.index is not None and param.index < site.positional)
        for site in sites.get(param.callee, ())
    )


@functools.lru_cache(maxsize=None)
def unset_options() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(keys no call passes, keys only tests pass)``; one scan serves
    every test below."""
    program = call_sites(PROGRAM_DIRS)
    tests = call_sites(TEST_DIRS)
    never: List[str] = []
    test_only: List[str] = []
    for param in defaulted_parameters():
        if _passed(param, program):
            continue
        (test_only if _passed(param, tests) else never).append(param.key)
    return tuple(never), tuple(test_only)


def test_every_option_is_set_by_some_call():
    never, _ = unset_options()
    assert not never, (
        "parameters that no call passes; make each a constant and delete "
        "what it guarded:\n  " + "\n  ".join(never)
    )


def test_test_only_options_are_seams():
    _, test_only = unset_options()
    unexplained = [key for key in test_only if key not in TEST_SEAMS]
    assert not unexplained, (
        "parameters that only tests pass; make each a constant, or add it "
        "to TEST_SEAMS with a reason:\n  " + "\n  ".join(unexplained)
    )


def test_seam_entries_are_still_test_only():
    _, test_only = unset_options()
    stale = sorted(key for key in TEST_SEAMS if key not in test_only)
    assert not stale, (
        "TEST_SEAMS entries that are gone or now set by the program; drop "
        "them:\n  " + "\n  ".join(stale)
    )
