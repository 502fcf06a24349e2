"""Forward abstract interpretation over the per-function CFGs.

One generic worklist solver serves both flow-sensitive rule families
(U units, R RNG taint); a family subclasses :class:`ForwardAnalysis`
and provides

* ``join_values(a, b)`` — the value lattice's join (both args non-None);
* ``transfer(stmt, env)`` — mutate ``env`` for one statement;
* optionally ``initial_env(cfg)`` — parameter seeding.

A family is then one function, ``family(module, report)``, that runs
:meth:`ForwardAnalysis.report_pass` over each of the module's CFGs and
calls ``report(node, rule_id, message)`` per violation.
:func:`flow_findings` runs every family: once per module, memoized,
keeping one finding per (rule, line, col).

Environments are plain ``{variable_name: abstract_value}`` dicts.  A
variable absent from the env is *unbound/unknown*; joining a bound
value with unbound keeps the value (may-analysis), which is the right
polarity for both families: "this var may hold seconds", "this var may
be RNG-derived".

Statements are evaluated **shallowly**: compound statements appear in
blocks only as their header (a ``for`` contributes its target binding,
a ``with`` its item bindings, a nested ``def`` binds a function value)
— their bodies live in other blocks, threaded by :mod:`repro.lint.cfg`.

Termination: value lattices are tiny (a handful of constants) and
joins only move up, so the fixpoint is reached in a few passes; a hard
visit cap backstops any future non-monotone transfer bug — the solver
then returns the partial result rather than hanging a lint run.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Tuple

from repro.lint.cfg import FUNCTION_NODES, FunctionCFG, is_test_expr
from repro.lint.modinfo import ModuleInfo

Env = Dict[str, Any]

#: ``report(node, rule_id, message)``: one violation at ``node``.
Report = Callable[[ast.AST, str, str], None]

#: A flow family: one pass over a module, reporting its violations.
Family = Callable[[ModuleInfo, Report], None]

#: (rule_id, line, col, message) as a family reports it.
RawFinding = Tuple[str, int, int, str]

#: Hard backstop on block visits per CFG (see module docstring).
MAX_BLOCK_VISITS = 4000


class ForwardAnalysis:
    """Generic forward dataflow over one :class:`FunctionCFG`."""

    def join_values(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, stmt: ast.stmt, env: Env) -> None:
        raise NotImplementedError

    def initial_env(self, cfg: FunctionCFG) -> Env:
        return {}

    # -- solver ---------------------------------------------------------------

    def join_envs(self, into: Env, other: Env) -> bool:
        """Join ``other`` into ``into``; True when ``into`` changed."""
        changed = False
        for name, value in other.items():
            if name not in into:
                into[name] = value
                changed = True
            else:
                joined = self.join_values(into[name], value)
                if joined != into[name]:
                    into[name] = joined
                    changed = True
        return changed

    def solve(self, cfg: FunctionCFG) -> Dict[int, Env]:
        """Fixpoint block-entry environments, keyed by block id."""
        entry_envs: Dict[int, Env] = {}
        if cfg.entry is None:
            return entry_envs
        entry_envs[cfg.entry.bid] = self.initial_env(cfg)
        worklist: List[int] = [cfg.entry.bid]
        by_id = {block.bid: block for block in cfg.blocks}
        visits = 0
        while worklist and visits < MAX_BLOCK_VISITS:
            bid = worklist.pop(0)
            visits += 1
            block = by_id[bid]
            env = dict(entry_envs.get(bid, {}))
            for stmt in block.stmts:
                self.transfer(stmt, env)
            for succ in block.succs:
                if succ.bid not in entry_envs:
                    entry_envs[succ.bid] = dict(env)
                    worklist.append(succ.bid)
                elif self.join_envs(entry_envs[succ.bid], env):
                    if succ.bid not in worklist:
                        worklist.append(succ.bid)
        return entry_envs

    def report_pass(
        self, cfg: FunctionCFG,
        check: Callable[[ast.stmt, Env], None],
    ) -> None:
        """Run ``check`` once per statement with its flow-in environment.

        Visits every block (reachable or not) exactly once, threading the
        fixpoint env through the block's statements via ``transfer`` so
        ``check`` sees the same state the solver computed.
        """
        entry_envs = self.solve(cfg)
        for block in cfg.blocks:
            env = dict(entry_envs.get(block.bid, {}))
            for stmt in block.stmts:
                check(stmt, env)
                self.transfer(stmt, env)


def flow_findings(module: ModuleInfo, family: Family) -> List[RawFinding]:
    """Run ``family`` over ``module`` once per lint run.

    The result is memoized on ``module.analysis_cache``, so every rule
    of a family shares one fixpoint per CFG.  A rule reported more than
    once at one location is kept once, with its first message.
    """
    cached = module.analysis_cache.get(family)
    if cached is not None:
        return cached
    found: Dict[Tuple[str, int, int], str] = {}

    def report(node: ast.AST, rule: str, message: str) -> None:
        key = (rule, getattr(node, "lineno", 1), getattr(node, "col_offset", 0))
        found.setdefault(key, message)

    family(module, report)
    raw = [key + (message,) for key, message in found.items()]
    module.analysis_cache[family] = raw
    return raw


# -- shared transfer helpers ---------------------------------------------------


def bound_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment target (tuples flattened;
    attribute/subscript targets bind no local name)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            if isinstance(element, ast.Starred):
                element = element.value
            names.extend(bound_names(element))
        return names
    return []


def iter_shallow_exprs(stmt: ast.stmt):
    """Expressions a statement evaluates *itself* (compound bodies are
    threaded into other blocks by the CFG builder and must be skipped)."""
    if is_test_expr(stmt):
        yield stmt.value
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
        return
    if isinstance(stmt, FUNCTION_NODES):
        for default in stmt.args.defaults + stmt.args.kw_defaults:
            if default is not None:
                yield default
        for decorator in stmt.decorator_list:
            yield decorator
        return
    if isinstance(stmt, ast.ClassDef):
        for base in stmt.bases:
            yield base
        for decorator in stmt.decorator_list:
            yield decorator
        return
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child


def transfer_assignments(
    stmt: ast.stmt, env: Env,
    evaluate: Callable[[ast.expr, Env], Any],
) -> None:
    """Generic binding transfer used by every family.

    Handles Assign / AnnAssign / AugAssign / for-targets / with-targets
    and nested ``def`` name bindings; leaves family-specific semantics
    (what the *value* abstracts to) to ``evaluate``.
    """
    if isinstance(stmt, ast.Assign):
        value = evaluate(stmt.value, env)
        for target in stmt.targets:
            for name in bound_names(target):
                if isinstance(target, ast.Name):
                    env[name] = value
                else:
                    env[name] = None  # tuple-unpacked: unknown
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None and isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = evaluate(stmt.value, env)
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            # Family evaluators see the synthetic BinOp when they care;
            # default: the target becomes unknown.
            env[stmt.target.id] = None
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in bound_names(stmt.target):
            env[name] = None
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            value = evaluate(item.context_expr, env)
            if item.optional_vars is not None:
                for name in bound_names(item.optional_vars):
                    if isinstance(item.optional_vars, ast.Name):
                        env[name] = value
                    else:
                        env[name] = None
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            for name in bound_names(target):
                env.pop(name, None)
