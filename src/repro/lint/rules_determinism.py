"""D-rules: determinism hazards.

The reproduction's claim rests on bit-identical seeded runs (DESIGN.md),
so anything that injects wall-clock values, hidden RNG state, hash-order
iteration, or host environment into a simulation path is a bug even when
the code "works".  These rules make those hazards mechanical:

* **D101** — wall-clock reads (``time.time``/``perf_counter``/
  ``datetime.now``/...) outside ``repro.obs`` and ``repro.automation``.
* **D102** — module-level ``random.*`` calls (the hidden global RNG).
* **D103** — ``random.Random`` constructed outside ``repro.util.rng``
  (unseeded: everywhere; seeded: in ``src/repro`` — route through
  ``make_rng``/``child_rng`` so streams stay independent).
* **D104** — iterating a ``set``/``frozenset`` (hash order) where order
  can leak into results; wrap in ``sorted(...)``.
* **D105** — ``os.environ``/``os.getenv``/``open`` inside the hermetic
  simulation packages (netsim/service/player/media).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.layers import HERMETIC_PACKAGES, WALL_CLOCK_PACKAGES
from repro.lint.modinfo import ModuleInfo
from repro.lint.registry import FileRule, register

_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "getrandbits", "uniform", "triangular",
    "choice", "choices", "sample", "shuffle", "seed", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "paretovariate", "vonmisesvariate", "weibullvariate",
})


def _import_tables(tree: ast.Module) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """(alias -> module) for ``import m [as a]``, and
    (name -> (module, original)) for ``from m import x [as a]``."""
    module_aliases: Dict[str, str] = {}
    from_imports: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = (node.module, alias.name)
    return module_aliases, from_imports


@register
class WallClockRule(FileRule):
    id = "D101"
    name = "wall-clock-read"
    description = (
        "time.time/monotonic/perf_counter/datetime.now read outside "
        "repro.obs and repro.automation; use the simulation clock "
        "(EventLoop.now) instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_repro and module.package in WALL_CLOCK_PACKAGES:
            return
        module_aliases, from_imports = _import_tables(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called: Optional[str] = None
            if isinstance(func, ast.Name):
                origin = from_imports.get(func.id)
                if origin and origin[0] == "time" and origin[1] in _TIME_FUNCS:
                    called = f"time.{origin[1]}"
            elif isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name):
                    target_module = module_aliases.get(value.id)
                    if target_module == "time" and func.attr in _TIME_FUNCS:
                        called = f"time.{func.attr}"
                    else:
                        origin = from_imports.get(value.id)
                        if (origin and origin[0] == "datetime"
                                and origin[1] in ("datetime", "date")
                                and func.attr in _DATETIME_METHODS):
                            called = f"datetime.{origin[1]}.{func.attr}"
                elif (isinstance(value, ast.Attribute)
                      and isinstance(value.value, ast.Name)
                      and module_aliases.get(value.value.id) == "datetime"
                      and value.attr in ("datetime", "date")
                      and func.attr in _DATETIME_METHODS):
                    called = f"datetime.{value.attr}.{func.attr}"
            if called is not None:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"wall-clock read {called}() in a simulation path; "
                    f"sim code must take time from EventLoop.now",
                )


@register
class GlobalRandomRule(FileRule):
    id = "D102"
    name = "global-random-call"
    description = (
        "call into the random module's hidden global RNG "
        "(random.random(), random.choice(), ...); draw from an injected "
        "random.Random built by repro.util.rng instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module == "repro.util.rng":
            return
        module_aliases, from_imports = _import_tables(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called: Optional[str] = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and module_aliases.get(func.value.id) == "random"
                    and func.attr in _RANDOM_MODULE_FUNCS):
                called = f"random.{func.attr}"
            elif isinstance(func, ast.Name):
                origin = from_imports.get(func.id)
                if origin and origin[0] == "random" and origin[1] in _RANDOM_MODULE_FUNCS:
                    called = f"random.{origin[1]}"
            if called is not None:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"{called}() uses the hidden module-global RNG; pass a "
                    f"random.Random from repro.util.rng.make_rng/child_rng",
                )


@register
class StrayRandomInstanceRule(FileRule):
    id = "D103"
    name = "stray-random-instance"
    description = (
        "random.Random constructed outside repro.util.rng: unseeded "
        "instances are nondeterministic anywhere; seeded ones in "
        "src/repro bypass the seed-hygiene hash (make_rng/child_rng)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module == "repro.util.rng":
            return
        module_aliases, from_imports = _import_tables(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_random_class = (
                isinstance(func, ast.Attribute)
                and func.attr in ("Random", "SystemRandom")
                and isinstance(func.value, ast.Name)
                and module_aliases.get(func.value.id) == "random"
            ) or (
                isinstance(func, ast.Name)
                and from_imports.get(func.id, ("", ""))[0] == "random"
                and from_imports.get(func.id, ("", ""))[1] in ("Random", "SystemRandom")
            )
            if not is_random_class:
                continue
            unseeded = not node.args and not node.keywords
            if unseeded:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "unseeded random.Random() is seeded from the OS; every "
                    "stream must derive from the experiment seed "
                    "(repro.util.rng.make_rng/child_rng)",
                )
            elif module.in_repro:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "random.Random(seed) bypasses the seed-hygiene hash; "
                    "use repro.util.rng.make_rng(seed) or child_rng so "
                    "subsystem streams stay independent",
                )


class _SetIterationVisitor(ast.NodeVisitor):
    """Finds iteration contexts whose iterable is a set expression."""

    def __init__(self) -> None:
        self.hits: List[Tuple[int, int, str]] = []
        #: Plain names / attribute leaves annotated as sets in this module.
        self.set_names: Set[str] = set()

    # -- annotation collection ------------------------------------------------

    def _annotation_is_set(self, annotation: Optional[ast.expr]) -> bool:
        if annotation is None:
            return False
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
        if isinstance(node, ast.Name):
            return node.id in (
                "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"
            )
        return False

    def collect_annotations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and self._annotation_is_set(node.annotation):
                target = node.target
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.set_names.add(target.attr)
            elif isinstance(node, ast.arg) and self._annotation_is_set(node.annotation):
                self.set_names.add(node.arg)

    # -- set-expression classification ---------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _flag(self, node: ast.expr, context: str) -> None:
        self.hits.append((node.lineno, node.col_offset, context))

    # -- iteration contexts ---------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for-loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            if self._is_set_expr(generator.iter):
                self._flag(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set keeps it order-free; don't flag.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        order_sensitive: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in ("list", "tuple", "enumerate", "iter"):
            order_sensitive = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            order_sensitive = "str.join"
        if order_sensitive is not None:
            for arg in node.args[:1]:
                if self._is_set_expr(arg):
                    self._flag(arg, f"{order_sensitive}()")
        self.generic_visit(node)


@register
class SetIterationRule(FileRule):
    id = "D104"
    name = "set-iteration-order"
    description = (
        "iteration over a set/frozenset exposes hash order to downstream "
        "logic; iterate sorted(the_set) so order is deterministic"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        visitor = _SetIterationVisitor()
        visitor.collect_annotations(module.tree)
        visitor.visit(module.tree)
        for line, col, context in visitor.hits:
            yield self.finding(
                module, line, col,
                f"set iterated in a {context}; hash order can differ across "
                f"runs and interpreters — iterate sorted(...) instead",
            )


@register
class HermeticPathRule(FileRule):
    id = "D105"
    name = "hermetic-sim-path"
    description = (
        "os.environ / os.getenv / open() inside the hermetic simulation "
        "packages (netsim, service, player, media); inputs must arrive "
        "via configuration objects"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package not in HERMETIC_PACKAGES:
            return
        module_aliases, from_imports = _import_tables(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                if (isinstance(node.value, ast.Name)
                        and module_aliases.get(node.value.id) == "os"):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "os.environ read in a hermetic simulation package; "
                        "pass configuration explicitly",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    origin = from_imports.get(func.id)
                    if func.id == "open" and func.id not in from_imports:
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            "open() in a hermetic simulation package; do file "
                            "I/O in experiments/analysis and pass data in",
                        )
                    elif origin == ("os", "getenv"):
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            "os.getenv in a hermetic simulation package; "
                            "pass configuration explicitly",
                        )
                elif (isinstance(func, ast.Attribute) and func.attr == "getenv"
                      and isinstance(func.value, ast.Name)
                      and module_aliases.get(func.value.id) == "os"):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "os.getenv in a hermetic simulation package; pass "
                        "configuration explicitly",
                    )
