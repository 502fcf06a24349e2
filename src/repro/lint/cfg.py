"""Per-function control-flow graphs built from the AST.

The flow-sensitive rule families (U units, R RNG-taint) need to reason
about *which values reach which uses*, not just which syntax appears —
``d = t1 - t0; total = d + wire_bytes`` is a unit bug even though no
single line mixes suffixes.  This module turns every function body
into a small CFG of basic blocks that the worklist solver in
:mod:`repro.lint.dataflow` iterates to a fixpoint.

Design constraints, in order:

1. **Never crash.**  The linter runs over every file in the repo (and
   arbitrary fixtures); an AST construct the builder does not model
   falls back to "straight-line statement", never an exception.  The
   crash-safety meta-test drives the builder over the whole tree and a
   torture fixture of exotic constructs.
2. **Over-approximate.**  Extra CFG edges only lose precision (joins
   widen to unknown); missing edges could let a rule claim a path that
   does not exist.  ``try`` bodies therefore edge to their handlers
   from the block *entering* the try as well as from the body's end.
3. **Stay tiny.**  Blocks are plain statement lists; expressions are
   not decomposed — the per-family transfer functions evaluate
   expressions directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional

#: ``ast.Match`` exists only on Python >= 3.10; resolve it lazily so the
#: builder (and its tests) run unchanged on 3.9.
_MATCH = getattr(ast, "Match", None)

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Block:
    """A straight-line run of statements with outgoing edges."""

    bid: int
    stmts: List[ast.stmt] = field(default_factory=list)
    succs: List["Block"] = field(default_factory=list)

    def add_succ(self, other: "Block") -> None:
        if other is not None and other not in self.succs:
            self.succs.append(other)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Block({self.bid}, stmts={len(self.stmts)}, "
                f"succs={[b.bid for b in self.succs]})")


@dataclass
class FunctionCFG:
    """The CFG of one function (or one module body)."""

    name: str
    node: ast.AST                 # FunctionDef / AsyncFunctionDef / Module
    blocks: List[Block] = field(default_factory=list)
    entry: Optional[Block] = None
    exit: Optional[Block] = None

    def reachable_blocks(self) -> List[Block]:
        """Blocks reachable from entry, in a deterministic order."""
        seen = []
        seen_ids = set()
        stack = [self.entry] if self.entry is not None else []
        while stack:
            block = stack.pop()
            if block.bid in seen_ids:
                continue
            seen_ids.add(block.bid)
            seen.append(block)
            stack.extend(reversed(block.succs))
        return sorted(seen, key=lambda b: b.bid)


class _Builder:
    """One-shot CFG builder; :func:`build_cfg` is the public face."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        #: (break_target, continue_target) stack for enclosing loops.
        self.loops: List[tuple] = []
        self.exit_block: Optional[Block] = None

    def new_block(self) -> Block:
        block = Block(bid=len(self.blocks))
        self.blocks.append(block)
        return block

    def build(self, name: str, node: ast.AST, body: List[ast.stmt]) -> FunctionCFG:
        entry = self.new_block()
        self.exit_block = self.new_block()
        tail = self._build_body(body, entry)
        if tail is not None:
            tail.add_succ(self.exit_block)
        return FunctionCFG(
            name=name, node=node, blocks=self.blocks,
            entry=entry, exit=self.exit_block,
        )

    # -- statement dispatch ---------------------------------------------------

    def _build_body(self, stmts: List[ast.stmt], current: Optional[Block]) -> Optional[Block]:
        """Thread ``stmts`` starting at ``current``; return the block where
        control continues afterwards (None when all paths left)."""
        for stmt in stmts:
            if current is None:
                # Unreachable code after return/break/...; keep building
                # so the rules still see the statements, in a fresh
                # disconnected block.
                current = self.new_block()
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.stmts.append(stmt)
            return self._build_body(stmt.body, current)
        if _MATCH is not None and isinstance(stmt, _MATCH):
            return self._build_match(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.stmts.append(stmt)
            if self.exit_block is not None:
                current.add_succ(self.exit_block)
            return None
        if isinstance(stmt, ast.Break):
            current.stmts.append(stmt)
            if self.loops:
                current.add_succ(self.loops[-1][0])
            return None
        if isinstance(stmt, ast.Continue):
            current.stmts.append(stmt)
            if self.loops:
                current.add_succ(self.loops[-1][1])
            return None
        # Plain statement (assignments, expressions, nested function and
        # class definitions, imports, global/nonlocal, assert, ...).
        current.stmts.append(stmt)
        return current

    # -- compound statements --------------------------------------------------

    def _build_if(self, stmt: ast.If, current: Block) -> Optional[Block]:
        # The test expression is evaluated in the current block.
        current.stmts.append(_TestExpr(stmt.test))
        then_entry = self.new_block()
        current.add_succ(then_entry)
        then_tail = self._build_body(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self.new_block()
            current.add_succ(else_entry)
            else_tail = self._build_body(stmt.orelse, else_entry)
        else:
            else_tail = current
        if then_tail is None and else_tail is None:
            return None
        after = self.new_block()
        if then_tail is not None:
            then_tail.add_succ(after)
        if else_tail is not None:
            else_tail.add_succ(after)
        return after

    def _build_loop(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        head = self.new_block()
        current.add_succ(head)
        if isinstance(stmt, ast.While):
            head.stmts.append(_TestExpr(stmt.test))
        else:
            head.stmts.append(stmt)  # the for-target binding happens here
        after = self.new_block()
        body_entry = self.new_block()
        head.add_succ(body_entry)
        head.add_succ(after)  # loop may not run / condition turns false
        self.loops.append((after, head))
        body_tail = self._build_body(stmt.body, body_entry)
        self.loops.pop()
        if body_tail is not None:
            body_tail.add_succ(head)
        if getattr(stmt, "orelse", None):
            else_tail = self._build_body(stmt.orelse, after)
            return else_tail
        return after

    def _build_try(self, stmt: ast.Try, current: Block) -> Optional[Block]:
        after = self.new_block()
        body_entry = self.new_block()
        current.add_succ(body_entry)
        body_tail = self._build_body(stmt.body, body_entry)

        handler_tails: List[Optional[Block]] = []
        for handler in stmt.handlers:
            handler_entry = self.new_block()
            # Conservative: an exception may fire before any body
            # statement ran, or after all of them.
            current.add_succ(handler_entry)
            if body_tail is not None:
                body_tail.add_succ(handler_entry)
            handler_tails.append(self._build_body(handler.body, handler_entry))

        else_tail = body_tail
        if stmt.orelse and body_tail is not None:
            else_entry = self.new_block()
            body_tail.add_succ(else_entry)
            else_tail = self._build_body(stmt.orelse, else_entry)

        tails = [t for t in handler_tails + [else_tail] if t is not None]
        if stmt.finalbody:
            final_entry = self.new_block()
            for tail in tails:
                tail.add_succ(final_entry)
            if not tails:
                current.add_succ(final_entry)
            final_tail = self._build_body(stmt.finalbody, final_entry)
            if final_tail is None:
                return None
            final_tail.add_succ(after)
            return after
        if not tails:
            return None
        for tail in tails:
            tail.add_succ(after)
        return after

    def _build_match(self, stmt: ast.AST, current: Block) -> Optional[Block]:
        current.stmts.append(_TestExpr(stmt.subject))
        after = self.new_block()
        current.add_succ(after)  # no case may match
        any_tail = False
        for case in stmt.cases:
            case_entry = self.new_block()
            current.add_succ(case_entry)
            tail = self._build_body(case.body, case_entry)
            if tail is not None:
                tail.add_succ(after)
                any_tail = True
        if not any_tail and not stmt.cases:
            any_tail = True
        return after


class _TestExpr(ast.stmt):
    """Wrapper marking a condition expression threaded into a block.

    Branch conditions (``if``/``while`` tests, ``match`` subjects) are
    evaluated before the branch, so they belong in the preceding block;
    wrapping keeps ``Block.stmts`` homogeneous for the transfer loop.
    """

    _fields = ("value",)

    def __init__(self, value: ast.expr) -> None:
        super().__init__()
        self.value = value
        self.lineno = getattr(value, "lineno", 1)
        self.col_offset = getattr(value, "col_offset", 0)


def is_test_expr(stmt: ast.stmt) -> bool:
    return isinstance(stmt, _TestExpr)


def build_cfg(name: str, node: ast.AST, body: List[ast.stmt]) -> FunctionCFG:
    """CFG for one body; never raises on well-formed ASTs."""
    return _Builder().build(name, node, body)


def build_module_cfgs(tree: ast.Module) -> List[FunctionCFG]:
    """One CFG per function/method in ``tree`` (nested ones included),
    plus one for the module body itself (named ``"<module>"``).

    The module-body CFG lets rules see module-level assignments (e.g. a
    module-global RNG) with the same machinery as function bodies.
    """
    cfgs: List[FunctionCFG] = [build_cfg("<module>", tree, tree.body)]
    for node in ast.walk(tree):
        if isinstance(node, FUNCTION_NODES):
            cfgs.append(build_cfg(node.name, node, node.body))
    return cfgs
