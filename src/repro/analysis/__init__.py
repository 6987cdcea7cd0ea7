"""Evaluation metrics and report rendering.

* :mod:`repro.analysis.metrics` — graph-recovery metrics over mined vs.
  ground-truth graphs, wrapping :mod:`repro.graphs.compare` with
  log-aware context;
* :mod:`repro.analysis.recovery` — end-to-end "generate, mine, compare"
  runs used by the Table 1/2 benches;
* :mod:`repro.analysis.tables` — fixed-width text tables matching the
  paper's layout, printed by every bench;
* :mod:`repro.analysis.diffing` — purported-model vs. mined-log diffs
  (the paper's "evaluation of the workflow system" use case).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.coverage import CoverageReport, edge_coverage
    from repro.analysis.diffing import ModelLogDiff, diff_against_log
    from repro.analysis.metrics import RecoveryMetrics, recovery_metrics
    from repro.analysis.recovery import RecoveryRun, run_recovery
    from repro.analysis.tables import TextTable

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "CoverageReport": ".coverage",
    "edge_coverage": ".coverage",
    "ModelLogDiff": ".diffing",
    "diff_against_log": ".diffing",
    "RecoveryMetrics": ".metrics",
    "recovery_metrics": ".metrics",
    "RecoveryRun": ".recovery",
    "run_recovery": ".recovery",
    "TextTable": ".tables",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
