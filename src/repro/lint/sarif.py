"""SARIF 2.1.0 output for the lint gate.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests: emitting it lets CI annotate PR diffs with
findings instead of burying them in a job log.  The document built here
is deliberately minimal-but-valid: one ``run``, the rule catalogue under
``tool.driver.rules`` (only rules that actually fired, so the file stays
small), and one ``error``-level ``result`` per finding.  Pragma-suppressed
findings are not exported; the code-scanning uploader derives each
result's identity itself.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import Finding
from repro.lint.registry import iter_rule_metadata
from repro.lint.runner import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_object(meta: Dict[str, str]) -> Dict[str, object]:
    return {
        "id": meta["id"],
        "name": meta["name"],
        "shortDescription": {"text": meta["name"].replace("-", " ")},
        "fullDescription": {"text": meta["description"]},
        "defaultConfiguration": {"level": "error"},
    }


def _result_object(
    finding: Finding, rule_index: Dict[str, int]
) -> Dict[str, object]:
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                },
            }
        ],
    }


def build_sarif(result: LintResult) -> Dict[str, object]:
    """The SARIF 2.1.0 document for one lint run, as a plain dict."""
    fired = {finding.rule for finding in result.findings}
    rules = [
        _rule_object(meta)
        for meta in iter_rule_metadata()
        if meta["id"] in fired
    ]
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    results: List[Dict[str, object]] = [
        _result_object(finding, rule_index) for finding in result.findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": "2.0.0",
                        "rules": rules,
                    },
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///", "description": {
                        "text": "repository root"}},
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def format_sarif(result: LintResult) -> str:
    return json.dumps(build_sarif(result), indent=2, sort_keys=False) + "\n"
