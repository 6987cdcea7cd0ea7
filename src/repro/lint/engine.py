"""The lint engine: run the registry over a model, collect a report.

:func:`lint_model` is the single entry point; everything else —
:mod:`repro.model.validate`, the CLI's ``lint`` subcommand, and the
auto-verification inside ``mine`` — goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.rules import LintContext, all_rules
from repro.logs.event_log import EventLog
from repro.model.process import ProcessModel
from repro.obs.recorder import Recorder, resolve_recorder

# Exit codes keyed on max severity (the acceptance contract of the
# ``repro-miner lint`` subcommand).
EXIT_CLEAN = 0
EXIT_WARNING = 1
EXIT_ERROR = 2


@dataclass
class LintReport:
    """Outcome of one lint run.

    Attributes
    ----------
    model_name:
        Name of the linted process.
    diagnostics:
        Findings in deterministic order (code, then location).
    checked_rules:
        Codes of the rules that actually ran (enabled and, for
        log-dependent rules, a log was available).
    """

    model_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    checked_rules: List[str] = field(default_factory=list)

    @property
    def max_severity(self) -> Optional[Severity]:
        """The highest severity present, ``None`` for a clean report."""
        if not self.diagnostics:
            return None
        return max(
            (d.severity for d in self.diagnostics), key=lambda s: s.rank
        )

    @property
    def exit_code(self) -> int:
        """0 clean/info-only, 1 max warning, 2 max error."""
        worst = self.max_severity
        if worst is Severity.ERROR:
            return EXIT_ERROR
        if worst is Severity.WARNING:
            return EXIT_WARNING
        return EXIT_CLEAN

    @property
    def is_clean(self) -> bool:
        """Whether no diagnostics at all were produced."""
        return not self.diagnostics

    def count(self, severity: Severity) -> int:
        """Number of diagnostics at exactly ``severity``."""
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        """Diagnostics at or above ``severity``."""
        return [
            d for d in self.diagnostics if d.severity.rank >= severity.rank
        ]

    def by_code(self, code: str) -> List[Diagnostic]:
        """Diagnostics whose code starts with ``code``."""
        return [d for d in self.diagnostics if d.code.startswith(code)]

    def summary(self) -> str:
        """One-line count summary (the text emitter's footer)."""
        errors = self.count(Severity.ERROR)
        warnings = self.count(Severity.WARNING)
        infos = self.count(Severity.INFO)
        return (
            f"{len(self.diagnostics)} diagnostic(s): {errors} error(s), "
            f"{warnings} warning(s), {infos} info(s) "
            f"[{len(self.checked_rules)} rules checked]"
        )

    def with_lines(self, line_map: Mapping[Location, int]) -> "LintReport":
        """Return a copy whose diagnostics carry model-file lines."""
        return LintReport(
            model_name=self.model_name,
            diagnostics=[
                d.with_line(line_map.get(d.location)) for d in self.diagnostics
            ],
            checked_rules=list(self.checked_rules),
        )


def lint_model(
    model: ProcessModel,
    log: Optional[EventLog] = None,
    config: Optional[LintConfig] = None,
    recorder: Optional[Recorder] = None,
) -> LintReport:
    """Run every enabled rule over ``model`` (and ``log``, if given).

    Log-dependent rules (``requires_log=True``) are silently skipped
    without a log; everything else about rule selection is governed by
    ``config`` (see :class:`~repro.lint.config.LintConfig`).  An
    enabled ``recorder`` gets a ``lint`` span (with a ``lint/coverage``
    child when a rule needs the log's edge coverage) plus the
    ``repro_lint_findings_total{severity=...}`` /
    ``repro_lint_rules_checked_total`` counters.

    Examples
    --------
    >>> from repro.model.builder import ProcessBuilder
    >>> model = (
    ...     ProcessBuilder("demo")
    ...     .chain("A", "B", "C")
    ...     .edge("A", "C")
    ...     .build()
    ... )
    >>> report = lint_model(model)
    >>> [d.code for d in report.diagnostics]
    ['PM108']
    """
    config = config or LintConfig()
    obs = resolve_recorder(recorder)
    context = LintContext(model, log=log, config=config, recorder=obs)
    diagnostics: List[Diagnostic] = []
    checked: List[str] = []
    with obs.span("lint", model=model.name):
        for lint_rule in all_rules():
            if not config.is_enabled(lint_rule.code):
                continue
            if lint_rule.requires_log and log is None:
                continue
            checked.append(lint_rule.code)
            severity = config.effective_severity(
                lint_rule.code,
                lint_rule.default_severity(config.dag_mode),
            )
            for finding in lint_rule.check(context):
                diagnostics.append(
                    Diagnostic(
                        code=lint_rule.code,
                        name=lint_rule.name,
                        severity=severity,
                        message=finding.message,
                        location=finding.location,
                        fixit=finding.fixit,
                    )
                )
    diagnostics.sort(key=lambda d: d.sort_key)
    report = LintReport(
        model_name=model.name,
        diagnostics=diagnostics,
        checked_rules=checked,
    )
    if obs.enabled:
        obs.count("repro_lint_rules_checked_total", len(checked))
        for level in Severity:
            obs.count(
                "repro_lint_findings_total",
                report.count(level),
                labels={"severity": level.value},
            )
    return report


def severity_overrides(mapping: Mapping[str, str]) -> Dict[str, Severity]:
    """Parse ``{"PM301": "error"}``-style override mappings (CLI/config
    surface) into the typed form :class:`LintConfig` expects."""
    return {
        code.strip().upper(): Severity.parse(value)
        for code, value in mapping.items()
    }
