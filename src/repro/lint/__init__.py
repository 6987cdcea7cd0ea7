"""Static analysis of process models — the ``repro.lint`` engine.

The paper's central guarantee is that a mined graph is a *minimal
conformal* model (Definitions 5–7, Theorem 1).  This package verifies
that guarantee — and a battery of further structural, semantic, and
log-vs-model properties — *statically*, without executing the model.

A registry of rules with stable diagnostic codes runs over a
:class:`~repro.model.process.ProcessModel` (optionally paired with an
:class:`~repro.logs.event_log.EventLog`) and emits structured
:class:`Diagnostic` values with severities, precise locations, human
messages, and machine-applicable fix-it hints:

* ``PM1xx`` — structure: endpoints, reachability, connectivity,
  minimality (redundant transitive edges), leftover cycles;
* ``PM2xx`` — semantics: unsatisfiable / vacuous / ill-typed edge
  conditions, dead-end guard sets (decided by a difference-constraint
  satisfiability checker over the declared output domain);
* ``PM3xx`` — log-vs-model: unexercised and low-support edges
  (Section 6 noise threshold), unknown/unobserved activities,
  conditions never satisfied by any observed output.

Entry points: :func:`lint_model` runs the engine, :class:`LintConfig`
selects rules and overrides severities, and :mod:`repro.lint.emitters`
renders reports as text, JSON, or SARIF 2.1.0.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.config import LintConfig
    from repro.lint.diagnostics import (
        Diagnostic,
        Location,
        Severity,
        activity_location,
        edge_location,
        model_location,
    )
    from repro.lint.engine import LintReport, lint_model
    from repro.lint.rules import LintContext, LintRule, all_rules, get_rule
    from repro.lint.satisfiability import is_satisfiable, is_tautology

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "LintConfig": ".config",
    "Diagnostic": ".diagnostics",
    "Location": ".diagnostics",
    "Severity": ".diagnostics",
    "activity_location": ".diagnostics",
    "edge_location": ".diagnostics",
    "model_location": ".diagnostics",
    "LintReport": ".engine",
    "lint_model": ".engine",
    "LintContext": ".rules",
    "LintRule": ".rules",
    "all_rules": ".rules",
    "get_rule": ".rules",
    "is_satisfiable": ".satisfiability",
    "is_tautology": ".satisfiability",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# Built-in rules register on import, and ``mine`` runs them.
from repro.lint import builtin as _builtin  # noqa: E402,F401
