"""The rule plugin registry.

Rules come in three shapes:

* :class:`FileRule` — sees one :class:`~repro.lint.modinfo.ModuleInfo`
  at a time (most AST checks).
* :class:`FlowRule` — a file rule whose findings come from one
  flow-sensitive family's shared pass over the module's CFGs
  (:func:`repro.lint.dataflow.flow_findings`).
* :class:`ProjectRule` — sees every module at once (import graph,
  cycles, layering).

A rule registers itself with :func:`register`; the runner instantiates
each registered class once per invocation.  Rule ids are ``<family
letter><3 digits>`` — D determinism, O observability purity,
L layering, F float discipline, U units/dimensions, R RNG taint — and
must be unique.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Type

from repro.lint.dataflow import Family, flow_findings
from repro.lint.findings import Finding
from repro.lint.modinfo import ModuleInfo

_ID_RE = re.compile(r"^[A-Z][0-9]{3}$")


class Rule:
    """Common base: identity and metadata."""

    id: str = ""
    name: str = ""
    description: str = ""

    def finding(self, module: ModuleInfo, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.id, path=module.path, line=line, col=col, message=message,
        )


class FileRule(Rule):
    """A rule evaluated independently per file."""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError


class FlowRule(FileRule):
    """A rule reading its findings from its family's shared pass.

    Subclasses set ``family`` (as a ``staticmethod``); every rule of a
    family shares one fixpoint per file.  The families police
    ``src/repro`` outside the linter itself.
    """

    family: Family

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro or module.package == "lint":
            return
        for rule_id, line, col, message in flow_findings(module, self.family):
            if rule_id == self.id:
                yield self.finding(module, line, col, message)


class ProjectRule(Rule):
    """A rule evaluated over the whole module set."""

    def check_project(self, modules: List[ModuleInfo]) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.id
    if not _ID_RE.match(rule_id):
        raise ValueError(f"bad rule id {rule_id!r} on {rule_class.__name__}")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id}: "
                         f"{existing.__name__} and {rule_class.__name__}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def iter_rule_metadata() -> Iterable[Dict[str, str]]:
    """Id/name/description for ``--list-rules`` and the docs."""
    for rule in all_rules():
        yield {
            "id": rule.id,
            "name": rule.name,
            "description": rule.description,
        }


def _load_builtin_rules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from repro.lint import (  # noqa: F401  (imported for side effect)
        rules_determinism,
        rules_float,
        rules_layering,
        rules_obs,
        rules_rng,
        rules_units,
    )
