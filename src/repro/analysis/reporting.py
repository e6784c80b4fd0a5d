"""Human, JSON, and SARIF reporters.

SARIF (2.1.0) is the CI-facing format: uploaded as an artifact from
the ``analysis`` job, it lets code-review tooling annotate findings on
the PR diff.  Waived findings ride along as suppressed results so the
waiver population stays visible in every report.
"""

from __future__ import annotations

import json
import os

from repro.analysis.engine import RULES, AnalysisResult, Finding

__all__ = ["render_human", "render_json", "render_sarif"]

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def render_human(result: AnalysisResult) -> str:
    lines: list[str] = []
    for finding in result.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col}: "
                     f"[{finding.rule}] {finding.message}")
        if finding.hint:
            lines.append(f"    fix: {finding.hint}")
    summary = (f"{result.files} files, {len(result.rules)} rules: "
               f"{len(result.findings)} finding(s)")
    if result.waived:
        summary += f", {len(result.waived)} waived"
    if result.waiver_lines:
        summary += f", {result.waiver_lines} waiver comment(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    return json.dumps({
        "version": 1,
        "files": result.files,
        "rules": result.rules,
        "findings": [f.to_dict() for f in result.findings],
        "waived": [f.to_dict() for f in result.waived],
        "waiver_comments": result.waiver_lines,
    }, indent=2, sort_keys=True)


def _sarif_result(finding: Finding, suppressed: bool) -> dict:
    message = finding.message
    if finding.hint:
        message = f"{message} — fix: {finding.hint}"
    entry = {
        "ruleId": finding.rule,
        "level": "note" if suppressed else "error",
        "message": {"text": message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace(os.sep, "/"),
                },
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": max(1, finding.col + 1),
                },
            },
        }],
    }
    if suppressed:
        entry["suppressions"] = [{"kind": "inSource",
                                  "justification": "inline analysis: "
                                                   "allow(...) waiver"}]
    return entry


def render_sarif(result: AnalysisResult) -> str:
    rule_ids = sorted({f.rule for f in (*result.findings, *result.waived)}
                      | set(result.rules))
    rules_meta = []
    for rule_id in rule_ids:
        registered = RULES.get(rule_id)
        description = registered.description if registered else rule_id
        rules_meta.append({
            "id": rule_id,
            "shortDescription": {"text": description or rule_id},
        })
    run = {
        "tool": {
            "driver": {
                "name": "repro-omg-analyze",
                "informationUri":
                    "https://github.com/omg-repro/omg-repro",
                "rules": rules_meta,
            },
        },
        "results": ([_sarif_result(f, suppressed=False)
                     for f in result.findings]
                    + [_sarif_result(f, suppressed=True)
                       for f in result.waived]),
        "invocations": [{
            "executionSuccessful": not result.findings,
        }],
        "properties": {
            "files": result.files,
            "waiverComments": result.waiver_lines,
        },
    }
    return json.dumps({"version": "2.1.0", "$schema": _SARIF_SCHEMA,
                       "runs": [run]}, indent=2, sort_keys=True)
