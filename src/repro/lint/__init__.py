"""Determinism & architecture static analysis (``python -m repro.lint``).

Zero-dependency AST lint pass encoding the repo's scientific-hygiene
invariants as mechanical rules:

* **D-rules** — determinism hazards: wall-clock reads, the hidden
  global RNG, hash-ordered set iteration, environment/filesystem access
  in hermetic simulation paths (:mod:`repro.lint.rules_determinism`).
* **O-rules** — observability purity: ``repro.obs`` stays
  leaf-importable and instrumentation sites stay guarded
  (:mod:`repro.lint.rules_obs`).
* **L-rules** — the layer DAG declared in :mod:`repro.lint.layers`,
  enforced over the extracted import graph
  (:mod:`repro.lint.rules_layering`).
* **F-rules** — float discipline on simulated time
  (:mod:`repro.lint.rules_float`).

The flow-sensitive families run on a per-function CFG
(:mod:`repro.lint.cfg`) with a forward abstract interpreter
(:mod:`repro.lint.dataflow`):

* **U-rules** — unit/dimension checking over the suffix conventions
  (``_s``/``_bytes``/``_bps``/...) and the
  :mod:`repro.lint.dimensions` algebra
  (:mod:`repro.lint.rules_units`).
* **R-rules** — RNG-taint: streams derive from
  ``repro.util.rng.child_rng`` and draws never depend on telemetry
  state (:mod:`repro.lint.rules_rng`).

Each family is one pass per file, driven by
:func:`repro.lint.dataflow.flow_findings`.

The only way past a finding is a ``# lint: disable=D102`` pragma on the
flagged line (:mod:`repro.lint.pragmas`).  ``--format sarif`` emits
SARIF 2.1.0 for GitHub code scanning (:mod:`repro.lint.sarif`).
"""

from repro.lint.discovery import discover_files, find_repo_root
from repro.lint.findings import Finding
from repro.lint.registry import (
    FileRule,
    FlowRule,
    ProjectRule,
    Rule,
    all_rules,
    iter_rule_metadata,
    register,
    rule_ids,
)
from repro.lint.runner import LintResult, lint_sources, run_lint
from repro.lint.sarif import build_sarif, format_sarif

__all__ = [
    "build_sarif",
    "format_sarif",
    "FileRule",
    "Finding",
    "FlowRule",
    "LintResult",
    "ProjectRule",
    "Rule",
    "all_rules",
    "discover_files",
    "find_repo_root",
    "iter_rule_metadata",
    "lint_sources",
    "register",
    "rule_ids",
    "run_lint",
]
