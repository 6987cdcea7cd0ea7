"""Report emitters: human text, machine JSON, and SARIF 2.1.0.

The SARIF output targets the 2.1.0 schema so CI systems can upload it
directly to code-scanning dashboards: one run, one ``tool.driver`` with
per-rule metadata, and one ``result`` per diagnostic carrying a logical
location (activity/edge) plus, when the model came from a file, a
physical location with the offending line.

:func:`model_line_map` recovers those lines by scanning the model
file's directive lines (``activity X`` / ``edge A B``), mirroring the
parser in :mod:`repro.model.serialize`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.lint.diagnostics import (
    FORMAT_JSON,
    FORMAT_SARIF,
    FORMAT_TEXT,
    FORMATS,
    Diagnostic,
    Location,
    activity_location,
    edge_location,
    model_location,
)
from repro.lint.engine import LintReport
from repro.lint.rules import LintRule, all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/workflow-mining/repro"


def model_line_map(text: str) -> Dict[Location, int]:
    """Map model locations to 1-based lines of the model file ``text``.

    Activities declared only implicitly (referenced by an edge but
    never by an ``activity`` line) map to their first mentioning edge
    line, so every diagnostic gets *some* anchor.
    """
    lines: Dict[Location, int] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        directive = fields[0]
        if directive == "process":
            lines.setdefault(model_location(), line_number)
        elif directive == "activity" and len(fields) >= 2:
            lines.setdefault(activity_location(fields[1]), line_number)
        elif directive == "edge" and len(fields) >= 3:
            lines.setdefault(
                edge_location(fields[1], fields[2]), line_number
            )
            # Implicitly declared endpoints anchor at this edge line.
            lines.setdefault(activity_location(fields[1]), line_number)
            lines.setdefault(activity_location(fields[2]), line_number)
    return lines


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------
def render_text(
    report: LintReport, artifact: Optional[str] = None
) -> str:
    """Human-readable rendering: one line per diagnostic plus a
    summary footer."""
    lines = [
        diagnostic.render(artifact) for diagnostic in report.diagnostics
    ]
    lines.append(report.summary())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------
def render_json(
    report: LintReport, artifact: Optional[str] = None
) -> str:
    """Machine-readable JSON rendering of the whole report."""
    payload: Dict[str, Any] = {
        "tool": TOOL_NAME,
        "version": __version__,
        "model": report.model_name,
        "max_severity": (
            report.max_severity.value
            if report.max_severity is not None
            else None
        ),
        "exit_code": report.exit_code,
        "checked_rules": list(report.checked_rules),
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }
    if artifact is not None:
        payload["artifact"] = artifact
    return json.dumps(payload, indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# SARIF 2.1.0
# ---------------------------------------------------------------------------
def _sarif_rule(lint_rule: LintRule) -> Dict[str, Any]:
    return {
        "id": lint_rule.code,
        "name": lint_rule.name,
        "shortDescription": {"text": lint_rule.description},
        "helpUri": f"{TOOL_URI}/blob/main/docs/LINTING.md#{lint_rule.code}",
        "defaultConfiguration": {
            "level": lint_rule.severity.sarif_level
        },
    }


def _sarif_location(
    diagnostic: Diagnostic, artifact: Optional[str]
) -> Dict[str, Any]:
    logical: Dict[str, Any] = {
        "name": str(diagnostic.location),
        "kind": diagnostic.location.kind,
    }
    location: Dict[str, Any] = {"logicalLocations": [logical]}
    if artifact is not None:
        physical: Dict[str, Any] = {
            "artifactLocation": {"uri": artifact}
        }
        if diagnostic.line is not None:
            physical["region"] = {"startLine": diagnostic.line}
        location["physicalLocation"] = physical
    return location


def render_sarif(
    report: LintReport,
    artifact: Optional[str] = None,
    rules: Optional[List[LintRule]] = None,
) -> str:
    """SARIF 2.1.0 rendering, ready for code-scanning upload.

    ``rules`` overrides the ``tool.driver.rules`` metadata array; by
    default it is the model-lint registry filtered to the report's
    checked rules.  :mod:`repro.devlint` passes its own
    :class:`~repro.lint.rules.LintRule` adapters here so both linters
    share one SARIF surface.
    """
    if rules is None:
        rules = [
            r for r in all_rules() if r.code in set(report.checked_rules)
        ]
    rule_index = {r.code: i for i, r in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    for diagnostic in report.diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diagnostic.code,
            "level": diagnostic.severity.sarif_level,
            "message": {"text": diagnostic.message},
            "locations": [_sarif_location(diagnostic, artifact)],
        }
        if diagnostic.code in rule_index:
            result["ruleIndex"] = rule_index[diagnostic.code]
        if diagnostic.fixit is not None:
            # SARIF has no plain-text fix slot outside `fixes` (which
            # needs byte-precise replacements); surface the hint as a
            # result property.
            result["properties"] = {"fixit": diagnostic.fixit}
        results.append(result)
    document: Dict[str, Any] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "version": __version__,
                        "rules": [_sarif_rule(r) for r in rules],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def render(
    report: LintReport,
    output_format: str,
    artifact: Optional[str] = None,
) -> str:
    """Dispatch on ``output_format`` (``text`` / ``json`` / ``sarif``)."""
    if output_format == FORMAT_TEXT:
        return render_text(report, artifact)
    if output_format == FORMAT_JSON:
        return render_json(report, artifact)
    if output_format == FORMAT_SARIF:
        return render_sarif(report, artifact)
    raise ValueError(
        f"unknown lint output format {output_format!r}; "
        f"expected one of {FORMATS}"
    )
