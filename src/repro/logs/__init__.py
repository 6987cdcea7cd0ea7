"""Workflow-log substrate (Definition 2 of the paper).

* :mod:`repro.logs.events` — the event record ``(P, A, E, T, O)``;
* :mod:`repro.logs.execution` — one execution (trace) of a process;
* :mod:`repro.logs.event_log` — a log of many executions;
* :mod:`repro.logs.codec` — Flowmark-style text serialization;
* :mod:`repro.logs.ingest` — fault-tolerant ingestion (error policies,
  quarantine, resource guards);
* :mod:`repro.logs.repair` — structural trace repair;
* :mod:`repro.logs.noise` — noise injectors for Section 6's experiments;
* :mod:`repro.logs.stats` — summary statistics over logs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.logs.codec import (
        ingest_log,
        ingest_log_file,
        read_log,
        read_log_file,
        read_process_logs,
        read_process_logs_file,
        write_log,
        write_log_file,
        write_process_logs,
    )
    from repro.logs.event_log import EventLog
    from repro.logs.events import END_EVENT, START_EVENT, EventRecord
    from repro.logs.execution import Execution
    from repro.logs.ingest import (
        POLICIES,
        POLICY_REPAIR,
        POLICY_SKIP,
        POLICY_STRICT,
        IngestLimits,
        IngestReport,
        IngestResult,
        IngestStream,
        Quarantine,
        QuarantinedItem,
    )
    from repro.logs.filters import (
        deduplicate_variants,
        filter_log,
        keep_variants,
        top_variants,
        variant_counts,
        with_activities,
        without_activities,
    )
    from repro.logs.jsonl import (
        ingest_log_jsonl,
        ingest_log_jsonl_file,
        read_log_jsonl,
        read_log_jsonl_file,
        write_log_jsonl,
        write_log_jsonl_file,
    )
    from repro.logs.repair import REPAIR_RULES, repair_records
    from repro.logs.noise import NoiseConfig, NoiseInjector
    from repro.logs.stats import LogStatistics, summarize_log
    from repro.logs.timing import (
        DurationStats,
        activity_durations,
        execution_makespans,
        handover_waits,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "ingest_log": ".codec",
    "ingest_log_file": ".codec",
    "read_log": ".codec",
    "read_log_file": ".codec",
    "read_process_logs": ".codec",
    "read_process_logs_file": ".codec",
    "write_log": ".codec",
    "write_log_file": ".codec",
    "write_process_logs": ".codec",
    "EventLog": ".event_log",
    "END_EVENT": ".events",
    "START_EVENT": ".events",
    "EventRecord": ".events",
    "Execution": ".execution",
    "POLICIES": ".ingest",
    "POLICY_REPAIR": ".ingest",
    "POLICY_SKIP": ".ingest",
    "POLICY_STRICT": ".ingest",
    "IngestLimits": ".ingest",
    "IngestReport": ".ingest",
    "IngestResult": ".ingest",
    "IngestStream": ".ingest",
    "Quarantine": ".ingest",
    "QuarantinedItem": ".ingest",
    "deduplicate_variants": ".filters",
    "filter_log": ".filters",
    "keep_variants": ".filters",
    "top_variants": ".filters",
    "variant_counts": ".filters",
    "with_activities": ".filters",
    "without_activities": ".filters",
    "ingest_log_jsonl": ".jsonl",
    "ingest_log_jsonl_file": ".jsonl",
    "read_log_jsonl": ".jsonl",
    "read_log_jsonl_file": ".jsonl",
    "write_log_jsonl": ".jsonl",
    "write_log_jsonl_file": ".jsonl",
    "REPAIR_RULES": ".repair",
    "repair_records": ".repair",
    "NoiseConfig": ".noise",
    "NoiseInjector": ".noise",
    "LogStatistics": ".stats",
    "summarize_log": ".stats",
    "DurationStats": ".timing",
    "activity_durations": ".timing",
    "execution_makespans": ".timing",
    "handover_waits": ".timing",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
