"""The declared metric catalogue: every stable ``repro_*`` name.

:mod:`repro.obs.metrics` is a *runtime* registry — it materializes
whatever series the instrumented code happens to emit during one run.
This module is the *static* registry: the authoritative, checked-in
declaration of every metric name the pipeline is allowed to emit, with
its kind, label keys and one-line meaning.

Two consumers keep it honest in both directions:

* ``repro.devlint`` rule **RL301** flags any ``recorder.count`` /
  ``gauge`` / ``observe`` call whose literal name is missing here
  (emitted but undeclared), and **RL302** flags any declaration that no
  source module references (declared but emitted nowhere).
* The "Stable metric names" tables in ``docs/OBSERVABILITY.md`` are
  generated from this catalogue via :func:`render_metrics_markdown`,
  and a test asserts the document carries the generated block verbatim
  — the doc is checked against the code, never trusted.

Renaming or dropping an entry is a compatibility break for downstream
dashboards; treat it like removing a CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name, kind, label keys, meaning."""

    name: str
    kind: str
    labels: Tuple[str, ...]
    help: str


def _counter(name: str, help: str, *labels: str) -> MetricSpec:
    return MetricSpec(name=name, kind=KIND_COUNTER, labels=labels, help=help)


def _gauge(name: str, help: str, *labels: str) -> MetricSpec:
    return MetricSpec(name=name, kind=KIND_GAUGE, labels=labels, help=help)


def _histogram(name: str, help: str, *labels: str) -> MetricSpec:
    return MetricSpec(
        name=name, kind=KIND_HISTOGRAM, labels=labels, help=help
    )


#: Every stable metric name, in emission-site order within each family.
DECLARED_METRICS: Tuple[MetricSpec, ...] = (
    # Mining core (Algorithm 2/3 stages).
    _counter(
        "repro_mine_executions_total",
        "Executions consumed by the mining pipeline",
    ),
    _counter(
        "repro_mine_variants_total",
        "Distinct trace variants after deduplication",
    ),
    _counter(
        "repro_mine_pairs_extracted_total",
        "Follows-pairs extracted in step 2",
    ),
    _counter(
        "repro_mine_step5_cache_hits_total",
        "Step-5 transitive-reduction memo hits",
    ),
    _counter(
        "repro_mine_step5_cache_misses_total",
        "Step-5 transitive-reduction memo misses",
    ),
    _counter(
        "repro_mine_step5_cache_prefix_extends_total",
        "Step-5 reductions resumed from a cached variant prefix",
    ),
    _counter(
        "repro_mine_scc_edges_removed_total",
        "Edges removed by strongly-connected-component collapse",
    ),
    _counter(
        "repro_mine_edges_dropped_total",
        "Edges dropped by the noise threshold or overlap filter",
        "cause",
    ),
    # Step-5 reduction (repro.core.kernels).
    _counter(
        "repro_kernel_reductions_total",
        "Step-5 reductions computed, by implementation path",
        "path",
    ),
    _counter(
        "repro_kernel_prefix_cache_events_total",
        "Step-5 reduction cache traffic, by event kind",
        "event",
    ),
    # Ingest / quarantine.
    _counter(
        "repro_ingest_executions_accepted_total",
        "Executions accepted by the ingest policy",
    ),
    _counter(
        "repro_ingest_records_accepted_total",
        "Event records accepted by the ingest policy",
    ),
    _counter(
        "repro_ingest_executions_repaired_total",
        "Executions that needed at least one repair rule",
    ),
    _counter(
        "repro_ingest_repairs_total",
        "Individual repairs applied, by rule",
        "rule",
    ),
    _counter(
        "repro_ingest_quarantined_total",
        "Lines/executions diverted to the dead-letter sink",
        "kind",
    ),
    _counter(
        "repro_ingest_quarantine_reasons_total",
        "Quarantined items by reason (incl. late-record)",
        "reason",
    ),
    _counter(
        "repro_ingest_variant_memo_total",
        "Prepared-variant memo traffic in MiningState.update and "
        "fold_sequence",
        "event",
    ),
    _counter(
        "repro_ingest_line_memo_total",
        "Scanned lines the fused stream's line memo answered (hit) or "
        "parsed (miss) while on",
        "event",
    ),
    # Streaming fold.
    _counter(
        "repro_stream_executions_total",
        "Executions folded into a MiningState by a streaming fold",
    ),
    # Section 7 conditions mining.
    _counter(
        "repro_conditions_edges_total",
        "Edges examined by the conditions learner",
    ),
    _counter(
        "repro_conditions_learnable_total",
        "Edges with a learnable boolean condition",
    ),
    _counter(
        "repro_conditions_splits_total",
        "Decision-tree splits evaluated while learning conditions",
    ),
    # Model lint.
    _counter(
        "repro_lint_rules_checked_total",
        "Lint rules that ran during one lint_model call",
    ),
    _counter(
        "repro_lint_findings_total",
        "Lint diagnostics produced, by severity",
        "severity",
    ),
    # Service daemon (repro-miner serve).
    _counter(
        "repro_service_requests_total",
        "HTTP requests served, by endpoint and status code",
        "endpoint",
        "status",
    ),
    _counter(
        "repro_service_events_total",
        "Event lines accepted into tenant ingest queues",
    ),
    _counter(
        "repro_service_backpressure_total",
        "Ingest batches rejected with 429 (tenant queue full)",
    ),
    _counter(
        "repro_service_ingest_errors_total",
        "Queued batches that failed to fold, by error kind",
        "kind",
    ),
    _counter(
        "repro_service_snapshots_total",
        "Model snapshot refreshes across all tenants",
    ),
    # Durability: journal + checkpoints.
    _counter(
        "repro_journal_records_total",
        "Executions appended to the write-ahead journal",
    ),
    _counter(
        "repro_journal_replayed_total",
        "Journal records replayed into the state during recovery",
    ),
    _counter(
        "repro_journal_torn_tail_total",
        "Recoveries that discarded a torn final journal record",
    ),
    _counter(
        "repro_checkpoint_fallback_total",
        "Checkpoint loads that fell back to the .prev sibling",
    ),
    _counter(
        "repro_session_checkpoints_total",
        "Hardened checkpoints written by durable sessions",
    ),
    # Gauges.
    _gauge(
        "repro_mine_edges",
        "Edge count after each mining stage",
        "stage",
    ),
    _gauge("repro_checkpoint_bytes", "Size of the last checkpoint"),
    _gauge(
        "repro_checkpoint_variants",
        "Variants covered by the last checkpoint",
    ),
    _gauge(
        "repro_checkpoint_executions",
        "Executions covered by the last checkpoint",
    ),
    _gauge(
        "repro_checkpoint_age_seconds",
        "Age of the loaded checkpoint at resume time",
    ),
    _gauge(
        "repro_service_tenants",
        "Live tenants held by the service registry",
    ),
    _gauge(
        "repro_service_queue_depth",
        "Queued ingest batches per tenant",
        "process",
    ),
    _gauge(
        "repro_span_seconds",
        "Per-span wall seconds (prom exporter view of spans)",
        "stage",
        "index",
    ),
    _gauge(
        "repro_span_cpu_seconds",
        "Per-span CPU seconds (prom exporter view of spans)",
        "stage",
        "index",
    ),
    # Histograms.
    _histogram(
        "repro_conditions_tree_depth",
        "Decision-tree depth per learned edge",
    ),
    _histogram(
        "repro_ingest_batch_records",
        "Records decoded per push_batch block",
        "source",
    ),
    _histogram(
        "repro_service_snapshot_seconds",
        "Wall time per model snapshot refresh (a read or flush past "
        "new folds)",
    ),
)

_BY_NAME: Dict[str, MetricSpec] = {
    spec.name: spec for spec in DECLARED_METRICS
}
if len(_BY_NAME) != len(DECLARED_METRICS):
    raise ValueError("duplicate metric name in DECLARED_METRICS")


def declared_metric_names() -> FrozenSet[str]:
    """The set of every declared metric name."""
    return frozenset(_BY_NAME)


def get_metric(name: str) -> MetricSpec:
    """Look up one declaration (:class:`KeyError` if unknown)."""
    return _BY_NAME[name]


_KIND_TITLES = (
    (KIND_COUNTER, "Counters (monotonic totals)"),
    (KIND_GAUGE, "Gauges (point-in-time values)"),
    (KIND_HISTOGRAM, "Histograms"),
)


def render_metrics_markdown() -> str:
    """The generated markdown tables for ``docs/OBSERVABILITY.md``.

    One table per metric kind, in declaration order.  The document
    embeds this text between ``BEGIN GENERATED: metrics-registry``
    markers; a test regenerates it and fails on any drift.
    """
    blocks: List[str] = []
    for kind, title in _KIND_TITLES:
        rows = [spec for spec in DECLARED_METRICS if spec.kind == kind]
        if not rows:
            continue
        lines = [
            f"### {title}",
            "",
            "| name | labels | meaning |",
            "|---|---|---|",
        ]
        for spec in rows:
            labels = (
                ", ".join(f"`{label}`" for label in spec.labels)
                if spec.labels
                else "—"
            )
            lines.append(f"| `{spec.name}` | {labels} | {spec.help} |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
