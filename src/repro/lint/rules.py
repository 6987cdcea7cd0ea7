"""The rule registry and the shared analysis context.

A lint rule is a function ``(LintContext) -> Iterable[Finding]``
registered under a stable diagnostic code with the :func:`rule`
decorator.  The engine iterates the registry in code order, stamps each
finding with the rule's code/slug and the configured severity, and
collects the resulting :class:`~repro.lint.diagnostics.Diagnostic`\\ s.

:class:`LintContext` carries the model (and optional log) plus lazily
computed, shared derived structures — reachability sets, the transitive
reduction, the coverage report, observed output vectors — so that rules
stay cheap and never recompute each other's work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis import coverage as log_coverage
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import transitive_reduction_edges
from repro.graphs.traversal import ancestors, descendants, find_cycle
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Finding, Severity
from repro.logs.event_log import EventLog
from repro.model.process import ProcessModel
from repro.obs.recorder import Recorder, resolve_recorder

Edge = Tuple[str, str]
RuleCheck = Callable[["LintContext"], Iterable[Finding]]


class LintContext:
    """Everything a rule may inspect during one lint run.

    Attributes
    ----------
    model:
        The process model under analysis.
    log:
        The event log paired with the model, or ``None`` (log-dependent
        rules are skipped without a log).
    config:
        The active :class:`~repro.lint.config.LintConfig`.
    recorder:
        Observability sink; the shared coverage pass runs under a
        ``lint/coverage`` span.
    graph:
        One shared copy of the model's control-flow graph.
    """

    def __init__(
        self,
        model: ProcessModel,
        log: Optional[EventLog] = None,
        config: Optional[LintConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.model = model
        self.log = log
        self.config = config or LintConfig()
        self.recorder = resolve_recorder(recorder)
        self.graph: DiGraph = model.graph
        self._cycle: Optional[List[str]] = None
        self._cycle_computed = False
        self._reachable: Optional[Set[str]] = None
        self._reaching: Optional[Set[str]] = None
        self._reduction: Optional[Set[Edge]] = None
        self._reduction_computed = False
        self._coverage: Optional[log_coverage.CoverageReport] = None
        self._coverage_computed = False
        self._observed: Optional[Dict[str, List[Tuple[float, ...]]]] = None
        self._log_activities: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    # Structural caches
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> Optional[List[str]]:
        """One directed cycle of the graph, or ``None`` when acyclic."""
        if not self._cycle_computed:
            self._cycle = find_cycle(self.graph)
            self._cycle_computed = True
        return self._cycle

    @property
    def is_dag(self) -> bool:
        """Whether the control-flow graph is acyclic."""
        return self.cycle is None

    @property
    def reachable_from_source(self) -> Set[str]:
        """The source plus every activity reachable from it."""
        if self._reachable is None:
            reachable = descendants(self.graph, self.model.source)
            reachable.add(self.model.source)
            self._reachable = reachable
        return self._reachable

    @property
    def reaching_sink(self) -> Set[str]:
        """The sink plus every activity with a path to it."""
        if self._reaching is None:
            reaching = ancestors(self.graph, self.model.sink)
            reaching.add(self.model.sink)
            self._reaching = reaching
        return self._reaching

    @property
    def reduction_edges(self) -> Optional[Set[Edge]]:
        """Edges of the transitive reduction (``None`` for cyclic
        graphs, whose reduction is not unique)."""
        if not self._reduction_computed:
            self._reduction = (
                transitive_reduction_edges(self.graph)
                if self.is_dag
                else None
            )
            self._reduction_computed = True
        return self._reduction

    # ------------------------------------------------------------------
    # Log-derived caches
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> Optional[log_coverage.CoverageReport]:
        """Per-edge usage of the model by the log (``None`` without a
        log, for an empty log, or for a cyclic graph — required-edge
        analysis needs a topological order)."""
        if not self._coverage_computed:
            self._coverage_computed = True
            if self.log is not None and len(self.log) > 0 and self.is_dag:
                with self.recorder.span("lint/coverage"):
                    self._coverage = log_coverage.edge_coverage(
                        self.graph, self.log
                    )
        return self._coverage

    @property
    def log_activities(self) -> Set[str]:
        """Activities the log mentions (empty set without a log)."""
        if self._log_activities is None:
            self._log_activities = (
                set(self.log.activities()) if self.log is not None else set()
            )
        return self._log_activities

    def observed_outputs(self, activity: str) -> List[Tuple[float, ...]]:
        """Distinct output vectors the log recorded for ``activity``.

        This is the observed output domain the Section 7 learner trains
        on (:mod:`repro.classifier.dataset`); ``PM305`` evaluates
        conditions over it.
        """
        if self._observed is None:
            observed: Dict[str, List[Tuple[float, ...]]] = {}
            seen: Dict[str, Set[Tuple[float, ...]]] = {}
            if self.log is not None:
                for execution in self.log:
                    for instance in execution.instances:
                        if instance.output is None:
                            continue
                        name = instance.activity
                        vector = tuple(float(v) for v in instance.output)
                        if vector not in seen.setdefault(name, set()):
                            seen[name].add(vector)
                            observed.setdefault(name, []).append(vector)
            self._observed = observed
        return self._observed.get(activity, [])


@dataclass(frozen=True)
class LintRule:
    """One registered rule: identity, defaults, and the check function.

    Attributes
    ----------
    code:
        Stable diagnostic code (``PM108``); unique in the registry.
    name:
        Kebab-case slug (``redundant-transitive-edge``).
    severity:
        Default severity (configs may override per code).
    description:
        One-line summary (also shipped in SARIF rule metadata).
    requires_log:
        Whether the rule is skipped when no log is provided.
    dag_severity:
        Severity the rule escalates to under
        :attr:`LintConfig.dag_mode` (``None`` = no escalation).
    check:
        The rule body.
    """

    code: str
    name: str
    severity: Severity
    description: str
    requires_log: bool
    check: RuleCheck
    dag_severity: Optional[Severity] = None

    def default_severity(self, dag_mode: bool) -> Severity:
        """The rule's severity before per-code overrides."""
        if dag_mode and self.dag_severity is not None:
            return self.dag_severity
        return self.severity


_REGISTRY: Dict[str, LintRule] = {}


def rule(
    code: str,
    name: str,
    severity: Severity,
    description: str,
    requires_log: bool = False,
    dag_severity: Optional[Severity] = None,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule function under ``code``.

    Codes are permanent API: once shipped, a code keeps its meaning
    forever (a retired rule's code is never reused).
    """

    def decorator(check: RuleCheck) -> RuleCheck:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code!r}")
        _REGISTRY[code] = LintRule(
            code=code,
            name=name,
            severity=severity,
            description=description,
            requires_log=requires_log,
            check=check,
            dag_severity=dag_severity,
        )
        return check

    return decorator


def all_rules() -> List[LintRule]:
    """Every registered rule, in code order."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> LintRule:
    """Look up one rule by its code (:class:`KeyError` if unknown)."""
    return _REGISTRY[code]
