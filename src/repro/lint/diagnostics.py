"""Diagnostic vocabulary: severities, locations, and findings.

A :class:`Diagnostic` is one finding of one rule at one location.  The
vocabulary is deliberately close to SARIF's result model so the
:mod:`repro.lint.emitters` SARIF emitter is a direct translation:
``code`` maps to ``ruleId``, ``severity`` to ``level``, and
:class:`Location` to a logical (activity/edge) plus optional physical
(model-file line) location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Numeric order for comparisons and exit codes."""
        return _SEVERITY_RANK[self]

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` value for this severity."""
        return "note" if self is Severity.INFO else self.value

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse ``"info" | "warning" | "error"`` (case-insensitive)."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            choices = ", ".join(s.value for s in cls)
            raise ValueError(
                f"unknown severity {text!r}; expected one of {choices}"
            ) from None


_SEVERITY_RANK: Dict[Severity, int] = {
    Severity.INFO: 0,
    Severity.WARNING: 1,
    Severity.ERROR: 2,
}


# Location kinds.
#: Report formats of :func:`repro.lint.emitters.render` (defined here,
#: with the vocabulary, so the CLI's parser need not load the emitters).
FORMAT_TEXT = "text"
FORMAT_JSON = "json"
FORMAT_SARIF = "sarif"
FORMATS = (FORMAT_TEXT, FORMAT_JSON, FORMAT_SARIF)

KIND_MODEL = "model"
KIND_ACTIVITY = "activity"
KIND_EDGE = "edge"


@dataclass(frozen=True)
class Location:
    """Where in the model a diagnostic points.

    Attributes
    ----------
    kind:
        ``"model"`` (the process as a whole), ``"activity"``, or
        ``"edge"``.
    activity:
        The activity name for activity locations.
    edge:
        The ``(source, target)`` pair for edge locations.
    """

    kind: str
    activity: Optional[str] = None
    edge: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        if self.kind == KIND_ACTIVITY:
            return f"activity {self.activity!r}"
        if self.kind == KIND_EDGE and self.edge is not None:
            return f"edge {self.edge[0]} -> {self.edge[1]}"
        return "model"

    @property
    def sort_key(self) -> Tuple[str, str, str]:
        """Deterministic ordering key (model < activity < edge groups)."""
        if self.kind == KIND_ACTIVITY:
            return ("1", self.activity or "", "")
        if self.kind == KIND_EDGE and self.edge is not None:
            return ("2", self.edge[0], self.edge[1])
        return ("0", "", "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (omits empty fields)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.activity is not None:
            payload["activity"] = self.activity
        if self.edge is not None:
            payload["edge"] = {"source": self.edge[0], "target": self.edge[1]}
        return payload


def model_location() -> Location:
    """A location naming the process as a whole."""
    return Location(kind=KIND_MODEL)


def activity_location(name: str) -> Location:
    """A location naming one activity."""
    return Location(kind=KIND_ACTIVITY, activity=name)


def edge_location(source: str, target: str) -> Location:
    """A location naming one control-flow edge."""
    return Location(kind=KIND_EDGE, edge=(source, target))


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint rule.

    Attributes
    ----------
    code:
        Stable diagnostic code (``PM101`` ...).  Codes are documented in
        ``docs/LINTING.md`` and never reused for a different meaning.
    name:
        The rule's kebab-case slug (``redundant-transitive-edge``).
    severity:
        Effective severity after configuration overrides.
    message:
        Human-readable, names the offending activities/edges.
    location:
        Precise logical location inside the model.
    fixit:
        Optional machine-applicable hint (e.g. ``remove edge A -> D``).
    line:
        1-based line in the model file, when the model came from a file
        (attached by :meth:`LintReport.with_lines`).
    """

    code: str
    name: str
    severity: Severity
    message: str
    location: Location = field(default_factory=model_location)
    fixit: Optional[str] = None
    line: Optional[int] = None

    @property
    def sort_key(self) -> Tuple[str, Tuple[str, str, str], str]:
        """Deterministic report ordering: code, then location."""
        return (self.code, self.location.sort_key, self.message)

    def with_line(self, line: Optional[int]) -> "Diagnostic":
        """Return a copy carrying a model-file line number."""
        return replace(self, line=line)

    def with_severity(self, severity: Severity) -> "Diagnostic":
        """Return a copy with an overridden severity."""
        return replace(self, severity=severity)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.fixit is not None:
            payload["fixit"] = self.fixit
        if self.line is not None:
            payload["line"] = self.line
        return payload

    def render(self, artifact: Optional[str] = None) -> str:
        """One-line text rendering, ``path:line:`` prefixed when known."""
        prefix = ""
        if artifact is not None:
            prefix = f"{artifact}:" if self.line is None else (
                f"{artifact}:{self.line}:"
            )
            prefix += " "
        text = (
            f"{prefix}{self.code} {self.severity.value}: {self.message} "
            f"[{self.location}]"
        )
        if self.fixit is not None:
            text += f" (fix: {self.fixit})"
        return text


@dataclass(frozen=True)
class Finding:
    """What a rule yields: a location, a message, an optional fix-it.

    The engine stamps the rule's code, slug, and (possibly overridden)
    severity to turn findings into :class:`Diagnostic` values, so rule
    bodies stay free of configuration concerns.
    """

    location: Location
    message: str
    fixit: Optional[str] = None
