"""Fault-tolerant log ingestion: policies, quarantine, report, guards.

The codecs' plain readers (:func:`repro.logs.codec.read_log`,
:func:`repro.logs.jsonl.read_log_jsonl`) are fail-fast — appropriate for
curated experiment inputs, fatal for the paper's motivating deployment,
where Flowmark audit trails accumulate over weeks of real use and a
single corrupt line would discard the whole log.  This module supplies
the shared machinery both codecs thread their line streams through:

* an **error policy** — :data:`POLICY_STRICT` (today's fail-fast
  behavior, unchanged), :data:`POLICY_SKIP` (divert malformed lines and
  invariant-violating executions to a quarantine sink and keep going),
  or :data:`POLICY_REPAIR` (additionally run
  :mod:`repro.logs.repair` over each execution before giving up on it);
* a :class:`Quarantine` sink — an in-memory list, optionally mirrored
  to a JSON-lines dead-letter file so dropped input is never silently
  destroyed;
* an :class:`IngestReport` accounting for every record: accepted,
  repaired (per rule), quarantined (per reason);
* :class:`IngestLimits` resource guards that abort with
  :class:`~repro.errors.ResourceLimitError` *before* an adversarial or
  runaway log exhausts memory.

The engine, :class:`IngestStream`, is codec-agnostic, so the
tab-separated and JSON-lines formats get identical semantics.  It has
one per-line reference, :meth:`IngestStream.push` (driven by
:func:`ingest_lines`/:func:`iter_ingest_lines` over a codec's line
parser), and one block engine, :meth:`IngestStream.push_batch`: the
codec's ``parse_batch`` scanner decodes a block into raw field tuples
and one bookkeeping loop files them into execution buckets.  Batch
``mine`` (:func:`ingest_blocks`), ``mine --stream``
(:class:`repro.logs.fastfold.FoldingIngestStream`) and the daemon's
tenants all run that block engine.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    LogFormatError,
    MalformedExecutionError,
    ResourceLimitError,
)
from repro.logs.event_log import EventLog
from repro.logs.events import EventRecord
from repro.logs.execution import Execution
from repro.logs.repair import REPAIR_DROPPED_EMPTY_TRACE, repair_records
from repro.resilience.faults import maybe_fault

PathOrStr = Union[str, Path]

POLICY_STRICT = "strict"
POLICY_SKIP = "skip"
POLICY_REPAIR = "repair"

POLICIES = (POLICY_STRICT, POLICY_SKIP, POLICY_REPAIR)

# Quarantine reason codes (the per-reason breakdown of IngestReport).
REASON_BAD_LINE = "bad-line"
REASON_MIXED_PROCESS = "mixed-process"
REASON_MALFORMED_EXECUTION = "malformed-execution"
REASON_EMPTY_EXECUTION = "empty-execution"
REASON_LATE_RECORD = "late-record"

QUARANTINE_REASONS = (
    REASON_BAD_LINE,
    REASON_MIXED_PROCESS,
    REASON_MALFORMED_EXECUTION,
    REASON_EMPTY_EXECUTION,
    REASON_LATE_RECORD,
)

#: Default finalization window of :func:`iter_ingest_lines`: an open
#: execution whose last record is this many accepted records behind the
#: stream head is considered complete.  Logs written by our codecs store
#: each execution contiguously (any window >= 1 suffices); the default
#: leaves generous room for interleaved hand-written logs.
DEFAULT_STREAM_WINDOW = 1024


@dataclass(frozen=True)
class IngestLimits:
    """Resource guards applied while a log streams in.

    Each limit is an inclusive upper bound; ``None`` disables the guard.
    Guards are independent of the error policy — they protect the
    *process*, not the data, so they raise under ``skip`` and ``repair``
    too.
    """

    max_executions: Optional[int] = None
    max_events_per_execution: Optional[int] = None
    max_activities: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "max_executions",
            "max_events_per_execution",
            "max_activities",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None")


@dataclass(frozen=True)
class QuarantinedItem:
    """One diverted input item: a raw line or a whole execution.

    ``kind`` is ``"line"`` or ``"execution"``; ``payload`` holds the raw
    line text (for lines) or the execution's records as JSON-ready
    dicts (for executions), so a dead-letter file can be re-processed.
    """

    kind: str
    reason: str
    detail: str
    line_number: Optional[int] = None
    execution_id: Optional[str] = None
    payload: object = None

    def to_json(self) -> dict:
        """The dead-letter file representation (one JSON object)."""
        return {
            "kind": self.kind,
            "reason": self.reason,
            "detail": self.detail,
            "line_number": self.line_number,
            "execution_id": self.execution_id,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QuarantinedItem":
        """Rebuild an item from one dead-letter file line."""
        return cls(
            kind=str(payload["kind"]),
            reason=str(payload["reason"]),
            detail=str(payload.get("detail", "")),
            line_number=payload.get("line_number"),
            execution_id=payload.get("execution_id"),
            payload=payload.get("payload"),
        )


class Quarantine:
    """Dead-letter sink for diverted input.

    Always collects in memory; when constructed with a ``path`` it also
    mirrors every item to a JSON-lines file.  The file is opened
    lazily in *append* mode and every record is written as one
    ``write`` call (JSON + newline) followed by a flush, so a crashed
    run loses at most the record being written and a resumed run
    appends after the survivors instead of truncating them.  A torn
    final line left by a crash is tolerated by
    :func:`read_dead_letter`.  Usable as a context manager;
    :meth:`close` is idempotent.
    """

    def __init__(self, path: Optional[PathOrStr] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.items: List[QuarantinedItem] = []
        self._handle = None

    def add(self, item: QuarantinedItem) -> None:
        """Divert one item into the sink."""
        self.items.append(item)
        if self.path is not None:
            if self._handle is None:
                # Held open across divert() calls; closed by __exit__.
                # Append-only dead-letter sink flushed per item: a
                # torn final line is re-quarantined on the next run,
                # so atomic replace would only lose earlier items.
                self._handle = open(  # noqa: SIM115  # devlint: ignore[RL101]
                    self.path, "a", encoding="utf-8"
                )
            self._handle.write(
                json.dumps(item.to_json(), sort_keys=True) + "\n"
            )
            self._handle.flush()

    def close(self) -> None:
        """Close the dead-letter file, if one was opened."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Quarantine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[QuarantinedItem]:
        return iter(self.items)


class DeadLetterScan(NamedTuple):
    """What :func:`read_dead_letter` recovered from a dead-letter file."""

    items: List[QuarantinedItem]
    torn_tail: bool


def read_dead_letter(path: PathOrStr) -> DeadLetterScan:
    """Read a quarantine dead-letter file back, tolerating a torn tail.

    Each complete line must be one :meth:`QuarantinedItem.to_json`
    object.  A final line that is unparseable *and* unterminated (no
    trailing newline) is the torn record of a crashed writer and is
    dropped, reported via ``torn_tail``; damage anywhere else raises
    :class:`~repro.errors.LogFormatError` — an append-only writer
    cannot produce it.
    """
    raw = Path(path).read_bytes()
    items: List[QuarantinedItem] = []
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, so the final split piece
    # is empty; anything else is an unterminated (torn) last record.
    tail = lines.pop()
    torn_tail = False
    if tail.strip():
        try:
            items_tail = QuarantinedItem.from_json(
                json.loads(tail.decode("utf-8"))
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            items_tail = None
            torn_tail = True
    else:
        items_tail = None
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            items.append(
                QuarantinedItem.from_json(json.loads(line.decode("utf-8")))
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise LogFormatError(
                f"corrupt dead-letter record: {exc}", index + 1
            ) from exc
    if items_tail is not None:
        items.append(items_tail)
    return DeadLetterScan(items=items, torn_tail=torn_tail)


@dataclass
class IngestReport:
    """Full accounting of one ingest run.

    Every input record ends up in exactly one of: accepted (possibly
    after repair), or quarantined (as a raw line or inside a diverted
    execution).
    """

    policy: str = POLICY_STRICT
    accepted_executions: int = 0
    accepted_records: int = 0
    repaired_executions: int = 0
    repairs: Counter = field(default_factory=Counter)
    quarantined_lines: int = 0
    quarantined_executions: int = 0
    reasons: Counter = field(default_factory=Counter)
    #: The log's process name (first record wins), filled during ingest
    #: so streaming callers — which never see an EventLog — get it too.
    process_name: Optional[str] = None

    @property
    def dropped(self) -> int:
        """Input items (lines + executions) diverted to quarantine."""
        return self.quarantined_lines + self.quarantined_executions

    @property
    def clean(self) -> bool:
        """Whether ingestion accepted everything without intervention."""
        return self.dropped == 0 and not self.repairs

    def summary(self) -> str:
        """A compact multi-line summary (the CLI prints this to stderr)."""
        lines = [
            f"ingest: policy={self.policy} "
            f"accepted={self.accepted_executions} executions "
            f"({self.accepted_records} records) "
            f"repaired={self.repaired_executions} "
            f"quarantined={self.quarantined_lines} lines + "
            f"{self.quarantined_executions} executions"
        ]
        if self.repairs:
            applied = ", ".join(
                f"{rule}={count}"
                for rule, count in sorted(self.repairs.items())
            )
            lines.append(f"  repairs: {applied}")
        if self.reasons:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.reasons.items())
            )
            lines.append(f"  quarantine reasons: {reasons}")
        return "\n".join(lines)


class IngestResult(NamedTuple):
    """What fault-tolerant loading returns: the log plus the audit trail."""

    log: EventLog
    report: IngestReport
    quarantine: Quarantine


LineParser = Callable[[str, int], Tuple[str, EventRecord]]

#: One record's codec-independent identity: ``(timestamp, activity,
#: event type, output)`` — everything but the process and execution id.
RawFields = Tuple[float, str, str, Optional[Tuple[float, ...]]]

#: A codec's block scanner: ``parse_batch(lines, start, memo)``
#: returning ``(entries, bad)``.  ``lines[i]`` is line number
#: ``start + i``; each entry is ``(line_number, raw_line, process_name,
#: execution_id, fields)`` with ``fields`` a :data:`RawFields` tuple;
#: ``bad`` is ``None`` for a fully scanned block or the ``(line_number,
#: raw_line)`` the scanner could not accept, which the caller routes
#: through :meth:`IngestStream.push` (for the canonical error, or to
#: accept what the line parser does) before resuming after it.
#: ``memo`` is ``None`` or the stream's line memo: a dict from line
#: text with the execution id cut out to ``(process_name, fields)``,
#: to which the scanner adds exactly one entry per line it could not
#: answer from it.
BatchParser = Callable[
    [Sequence[str], int, Optional[dict]],
    Tuple[
        List[Tuple[int, str, str, str, RawFields]],
        Optional[Tuple[int, str]],
    ],
]

#: Lines per block fed through :meth:`IngestStream.push_batch` by the
#: batched drivers.  Large enough to amortize per-block dispatch, small
#: enough that a block of worst-case lines stays in cache.
INGEST_BLOCK_LINES = 4096

#: The line memo stays on while it answers at least this share of a
#: block's scanned lines; below it the memo is cleared (freeing its
#: memory) and blocks scan memo-free.
LINE_MEMO_MIN_HIT_RATIO = 0.5

#: While the line memo is off, one block in this many retries it, so a
#: log that turns repetitive later wins it back.
LINE_MEMO_RETRY_EVERY = 16

#: Hard bound on line-memo entries.  Keys are whole id-excised lines
#: (~100 bytes plus the shared field tuple), so the cap bounds a
#: mostly-but-not-quite repetitive stream at a few tens of MB.
LINE_MEMO_CAP = 65536


def _materialize(eid: str, items: Sequence) -> List[EventRecord]:
    """Rebuild a bucket's records; field tuples become EventRecords.

    Buckets may mix raw field tuples (scanner-fed) with EventRecords
    (per-line ``push``-fed); finalization, repair and quarantine all
    want real records, built here only when a bucket finalizes.
    """
    new = EventRecord.__new__
    cls = EventRecord
    records: List[EventRecord] = []
    append = records.append
    for item in items:
        if type(item) is tuple:
            record = new(cls)
            attrs = record.__dict__
            attrs["timestamp"] = item[0]
            attrs["execution_id"] = eid
            attrs["activity"] = item[1]
            attrs["event_type"] = item[2]
            attrs["output"] = item[3]
            append(record)
        else:
            append(item)
    return records


def _record_payload(records: Iterable[EventRecord]) -> List[dict]:
    return [
        {
            "execution": r.execution_id,
            "activity": r.activity,
            "type": r.event_type,
            "time": r.timestamp,
            "output": list(r.output) if r.output is not None else None,
        }
        for r in records
    ]


def _finalize_execution(
    eid: str,
    records: List[EventRecord],
    policy: str,
    sink: Quarantine,
    report: IngestReport,
) -> Optional[Execution]:
    """Close one execution's record bucket: repair, build, or divert.

    Returns the accepted :class:`Execution` (report updated), or
    ``None`` when the bucket was quarantined.  Under ``strict`` a
    malformed execution raises instead, exactly like the plain readers.
    """
    applied: Counter = Counter()
    if policy == POLICY_REPAIR:
        records, applied = repair_records(records)
    try:
        execution = Execution(eid, records)
    except MalformedExecutionError as exc:
        if policy == POLICY_STRICT:
            raise
        sink.add(
            QuarantinedItem(
                kind="execution",
                reason=REASON_MALFORMED_EXECUTION,
                detail=str(exc),
                execution_id=eid,
                payload=_record_payload(records),
            )
        )
        report.quarantined_executions += 1
        report.reasons[REASON_MALFORMED_EXECUTION] += 1
        return None
    if policy == POLICY_REPAIR and len(execution) == 0:
        applied[REPAIR_DROPPED_EMPTY_TRACE] += 1
        report.repairs.update(applied)
        sink.add(
            QuarantinedItem(
                kind="execution",
                reason=REASON_EMPTY_EXECUTION,
                detail="no completed activity instance",
                execution_id=eid,
                payload=_record_payload(records),
            )
        )
        report.quarantined_executions += 1
        report.reasons[REASON_EMPTY_EXECUTION] += 1
        return None
    if applied:
        report.repaired_executions += 1
        report.repairs.update(applied)
    report.accepted_executions += 1
    report.accepted_records += len(records)
    return execution


def _finalize_execution_fast(
    eid: str,
    records: List[EventRecord],
    policy: str,
    sink: Quarantine,
    report: IngestReport,
) -> Optional[Execution]:
    """Bucket finalization for the batch path.

    Clean buckets (the overwhelming majority) build their
    :class:`Execution` through :meth:`Execution.from_grouped_records`,
    which skips the re-validation the general constructor pays for
    arbitrary record lists.  Repair-policy buckets and anything the fast
    builder declines fall back to :func:`_finalize_execution`, so every
    policy/quarantine outcome is byte-identical to the per-record path.
    """
    if policy == POLICY_REPAIR:
        return _finalize_execution(eid, records, policy, sink, report)
    execution = Execution.from_grouped_records(eid, records)
    if execution is None:
        return _finalize_execution(eid, records, policy, sink, report)
    report.accepted_executions += 1
    report.accepted_records += len(records)
    return execution


def iter_ingest_lines(
    numbered_lines: Iterable[Tuple[int, str]],
    parse_line: LineParser,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Stream executions out of a line stream under an error policy.

    The out-of-core counterpart of :func:`ingest_lines`: executions are
    yielded as they *finalize* instead of being collected into an
    :class:`~repro.logs.event_log.EventLog`, so memory is bounded by the
    open-execution window — not the log.  An execution finalizes once
    ``window`` accepted records have streamed past without adding to it
    (our codecs write executions contiguously, so any window works for
    round-tripped files); remaining open executions finalize at end of
    stream in first-seen order.  ``window=None`` disables early
    finalization entirely, reproducing batch semantics — and batch
    ingestion is implemented as exactly that.

    A record arriving for an already-finalized execution is a
    ``late-record``: an error under ``strict``, a quarantined line
    otherwise.  Late-record detection keeps one set entry per finalized
    execution *id* — bytes per execution, the one deliberate deviation
    from strictly constant memory.

    Line errors, process-name mixing, repairs and resource guards
    behave exactly as in :func:`ingest_lines`.  Pass ``report`` (and a
    ``quarantine``) in to inspect the accounting after exhaustion; the
    report's ``process_name`` is filled from the first record.

    Durability hooks (see ``docs/RELIABILITY.md``): a
    :class:`~repro.resilience.journal.Journal` passed as ``journal``
    receives every accepted execution *before* it is yielded, making
    the downstream fold write-ahead — journal sequence numbers
    correspond 1:1 with accepted executions in finalization order.  A
    resumed run passes ``journal_skip=K`` to suppress *journaling* of
    the first ``K`` accepted executions (the journal already holds
    them); they are still yielded and still counted by the report, so
    resumed tracking and accounting match an uninterrupted run — the
    caller skips re-folding them by position.

    Yields accepted executions in finalization order.  The generator
    must be fully consumed for the report to be complete.
    """
    if journal_skip < 0:
        raise ValueError("journal_skip must be >= 0")
    stream = _iter_ingest_core(
        numbered_lines,
        parse_line,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
    )
    if journal is None:
        yield from stream
        return
    yield from _journaled(stream, journal, journal_skip)


def _journaled(
    executions: Iterator[Execution], journal, journal_skip: int
) -> Iterator[Execution]:
    # Write-ahead hook shared by the per-line and batched drivers:
    # every accepted execution is journaled before it is yielded.
    accepted = 0
    for execution in executions:
        accepted += 1
        if accepted > journal_skip:
            maybe_fault("ingest.accept")
            journal.append_execution(execution)
        yield execution


class IngestStream:
    """Push-based ingest: the policy/window machinery as an object.

    This is the same engine :func:`iter_ingest_lines` runs — one bucket
    per open execution, recency-window finalization, policy dispatch,
    resource guards — turned inside out so a *caller* can drive it one
    line at a time.  The pull-based generators are thin drivers over
    this class, which keeps batch, streaming-CLI and service ingest
    identical by construction.

    ``push`` accepts one raw line and returns the executions (usually
    zero or one) whose windows it closed.  ``flush`` finalizes every
    open bucket *mid-stream* — the service calls it so a quiescent
    tenant's model converges without more traffic; flushed ids join the
    late-record set, so stragglers are quarantined exactly like
    window-expired ones.  ``close`` ends the stream with batch
    end-of-log semantics (buckets close without joining the late set,
    matching the generators' final loop).

    ``push_batch`` feeds a block of lines through the one block engine:
    the codec's ``parse_batch`` scanner decodes the block into raw field
    tuples (with the line memo answering byte-repeated lines), and one
    bookkeeping loop files them into buckets.  Records are built only
    when a bucket finalizes.  Without a scanner the block is pushed one
    line at a time.  ``line_memo_hits``/``line_memo_misses`` count the
    scanned lines the line memo answered or had to parse while it was
    on.

    Exceptions out of ``push`` under ``strict`` leave the stream usable:
    guards raise before any mutation, and a malformed-execution error
    surfaces after its bucket was already removed.
    """

    def __init__(
        self,
        parse_line: LineParser,
        policy: str = POLICY_STRICT,
        limits: Optional[IngestLimits] = None,
        quarantine: Optional[Quarantine] = None,
        report: Optional[IngestReport] = None,
        window: Optional[int] = DEFAULT_STREAM_WINDOW,
        parse_batch: Optional[BatchParser] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 or None")
        self._parse_line = parse_line
        # ``parse_batch`` opts the stream into the block engine, and
        # buckets finalize through the fast Execution builder.  Without
        # it the stream is the per-record engine, which is also the
        # benchmark reference, so it stays pristine.
        self._parse_batch = parse_batch
        self.policy = policy
        self.limits = limits if limits is not None else IngestLimits()
        self.quarantine = (
            quarantine if quarantine is not None else Quarantine()
        )
        self.report = report if report is not None else IngestReport()
        self.report.policy = policy
        self.window = window
        # ``_grouped`` holds the open executions.  With a window it is
        # kept in last-touched order (pop + reinsert on every record) so
        # the least-recently-touched bucket is always first; ``_touch``
        # maps each open eid to the accepted-record index that last
        # extended it.  Buckets hold raw field tuples (scanner-fed) and
        # EventRecords (``push``-fed).
        self._grouped: Dict[str, list] = {}
        self._touch: Dict[str, int] = {}
        self._finalized: Set[str] = set()
        self._activities: Set[str] = set()
        self._record_index = 0
        self._line_memo: dict = {}
        # Blocks left to scan memo-free before the line memo is retried.
        self._line_memo_idle = 0
        self.line_memo_hits = 0
        self.line_memo_misses = 0

    @property
    def open_executions(self) -> int:
        """How many executions currently hold an open bucket."""
        return len(self._grouped)

    def _quarantine_line(
        self,
        reason: str,
        detail: str,
        line_number: int,
        raw_line: str,
        execution_id: Optional[str] = None,
    ) -> None:
        self.quarantine.add(
            QuarantinedItem(
                kind="line",
                reason=reason,
                detail=detail,
                line_number=line_number,
                execution_id=execution_id,
                payload=raw_line.rstrip("\n"),
            )
        )
        self.report.quarantined_lines += 1
        self.report.reasons[reason] += 1

    def push(self, line_number: int, raw_line: str) -> List[Execution]:
        """Feed one raw line; return executions finalized by it."""
        report = self.report
        policy = self.policy
        limits = self.limits
        try:
            name, record = self._parse_line(raw_line, line_number)
        except LogFormatError as exc:
            if policy == POLICY_STRICT:
                raise
            self._quarantine_line(
                REASON_BAD_LINE, str(exc), line_number, raw_line
            )
            return []
        if report.process_name is None:
            report.process_name = name
        elif name != report.process_name:
            if policy == POLICY_STRICT:
                raise LogFormatError(
                    f"log mixes processes {report.process_name!r} "
                    f"and {name!r}",
                    line_number,
                )
            self._quarantine_line(
                REASON_MIXED_PROCESS,
                (
                    f"record of process {name!r} in a log of "
                    f"{report.process_name!r}"
                ),
                line_number,
                raw_line,
            )
            return []
        eid = record.execution_id
        if eid in self._finalized:
            if policy == POLICY_STRICT:
                raise LogFormatError(
                    f"record for execution {eid!r} arrived after its "
                    f"finalization window closed; raise --stream-window "
                    f"or sort the log by execution",
                    line_number,
                )
            self._quarantine_line(
                REASON_LATE_RECORD,
                (
                    f"execution {eid!r} already finalized; record "
                    f"arrived more than {self.window} records late"
                ),
                line_number,
                raw_line,
                execution_id=eid,
            )
            return []
        grouped = self._grouped
        bucket = grouped.get(eid)
        if bucket is None:
            if (
                limits.max_executions is not None
                and len(grouped) + len(self._finalized)
                >= limits.max_executions
            ):
                raise ResourceLimitError(
                    "max_executions",
                    limits.max_executions,
                    f"execution {eid!r} at line {line_number}",
                    line_number=line_number,
                )
            bucket = grouped[eid] = []
        elif self.window is not None:
            # Move to the recency end so the front stays oldest.
            grouped.pop(eid)
            grouped[eid] = bucket
        if (
            limits.max_events_per_execution is not None
            and len(bucket) >= limits.max_events_per_execution
        ):
            raise ResourceLimitError(
                "max_events_per_execution",
                limits.max_events_per_execution,
                f"execution {eid!r} at line {line_number}",
                line_number=line_number,
            )
        if record.activity not in self._activities:
            if (
                limits.max_activities is not None
                and len(self._activities) >= limits.max_activities
            ):
                raise ResourceLimitError(
                    "max_activities",
                    limits.max_activities,
                    f"activity {record.activity!r} at line {line_number}",
                    line_number=line_number,
                )
            self._activities.add(record.activity)
        bucket.append(record)
        self._record_index += 1
        self._touch[eid] = self._record_index
        if self.window is None:
            return []
        out: List[Execution] = []
        while grouped:
            oldest = next(iter(grouped))
            if self._record_index - self._touch[oldest] < self.window:
                break
            records = grouped.pop(oldest)
            del self._touch[oldest]
            self._finalized.add(oldest)
            self._emit(oldest, records, out)
        return out

    def _emit(self, eid: str, items: list, out: List[Execution]) -> None:
        """Finalize one bucket, appending the accepted execution."""
        if self._parse_batch is None:
            execution = _finalize_execution(
                eid, items, self.policy, self.quarantine, self.report
            )
        else:
            execution = _finalize_execution_fast(
                eid,
                _materialize(eid, items),
                self.policy,
                self.quarantine,
                self.report,
            )
        if execution is not None:
            out.append(execution)

    def _commit(self, out: List[Execution]) -> None:
        """Hook: the executions ``_emit`` put on ``out`` are final.

        Called where per-line ingestion hands its caller the finalized
        list: after each record's window drain in a block and at the
        end of ``flush``/``close``.  The plain stream leaves them on
        ``out`` for its caller.
        """

    def push_batch(
        self,
        start: int,
        lines: Sequence[str],
        out: Optional[List[Execution]] = None,
    ) -> List[Execution]:
        """Feed a block of raw lines; return executions it finalized.

        ``lines[i]`` is line number ``start + i``.  The block is decoded
        through the codec's ``parse_batch`` scanner and the bookkeeping
        loop runs with its lookups bound to locals, so policy dispatch
        and window accounting amortize per block.  Lines the scanner
        cannot accept re-enter :meth:`push` individually, which makes
        every error, quarantine entry and report field byte-identical
        to pushing the same lines one at a time.  Blank lines are
        skipped, as the readers skip them.

        When the caller passes ``out``, finalized executions are
        appended there *as they finalize* — so a strict-policy error
        raised mid-block still leaves everything finalized before the
        bad line in the caller's hands, exactly as per-line pushing
        would have returned them.
        """
        if out is None:
            out = []
        self._push_block(start, lines, out)
        return out

    def _push_block(
        self, start: int, lines: Sequence[str], out: List[Execution]
    ) -> None:
        scan = self._parse_batch
        if scan is None:
            for number, line in enumerate(lines, start):
                if line.strip():
                    out.extend(self.push(number, line))
            return
        # Real logs carry absolute timestamps, so their lines rarely
        # repeat: each block measures what share of its lines the memo
        # answered and, below LINE_MEMO_MIN_HIT_RATIO, clears it and
        # scans memo-free, retrying it on one block in
        # LINE_MEMO_RETRY_EVERY.
        memo: Optional[dict] = None
        if self._line_memo_idle:
            self._line_memo_idle -= 1
        else:
            memo = self._line_memo
            if len(memo) + len(lines) > LINE_MEMO_CAP:
                memo.clear()
        # A block that starts on an empty memo is its warm-up: every
        # first sighting misses, so it is not judged.
        warm = bool(memo)
        scanned = misses = 0
        total = len(lines)
        index = 0
        while index < total:
            before = len(memo) if memo is not None else 0
            entries, bad = scan(
                lines[index:] if index else lines, start + index, memo
            )
            scanned += len(entries)
            if memo is not None:
                # Every line the memo could not answer was parsed and
                # added one entry.
                misses += len(memo) - before
            if entries:
                self._push_entries(entries, out)
            if bad is None:
                break
            number, line = bad
            # The line parser decides: identical acceptance, errors and
            # quarantine entries.
            out.extend(self.push(number, line))
            index = number - start + 1
        if memo is not None and scanned:
            self.line_memo_hits += scanned - misses
            self.line_memo_misses += misses
            if warm and (
                scanned - misses < LINE_MEMO_MIN_HIT_RATIO * scanned
            ):
                memo.clear()
                self._line_memo_idle = LINE_MEMO_RETRY_EVERY - 1

    def _push_entries(
        self,
        entries: List[Tuple[int, str, str, str, RawFields]],
        out: List[Execution],
    ) -> None:
        # The push() bookkeeping loop over a scanned block, with every
        # per-record attribute lookup bound to a local.  Any change here
        # must mirror push() — the hypothesis parity suite
        # (tests/test_ingest_fastpath.py) holds the two paths equal.
        # The only shortcut is ``cur_eid``: for a run of records of the
        # same open execution the bucket lookup, finalized-set probe
        # and recency move are per-run (their outcomes cannot change
        # mid-run: a just-touched bucket is never expired).
        report = self.report
        limits = self.limits
        window = self.window
        grouped = self._grouped
        touch = self._touch
        finalized = self._finalized
        activities = self._activities
        get_bucket = grouped.get
        emit = self._emit
        strict = self.policy == POLICY_STRICT
        max_executions = limits.max_executions
        max_events = limits.max_events_per_execution
        max_activities = limits.max_activities
        process_name = report.process_name
        record_index = self._record_index
        # Track the recency ends in locals: ``newest`` is the bucket at
        # the recency end (last inserted/moved), ``oldest`` the one the
        # expiry check probes; both are plain derived views of
        # ``grouped``.
        newest = next(reversed(grouped)) if grouped else None
        oldest = next(iter(grouped)) if grouped else None
        cur_eid: Optional[str] = None
        bucket: Optional[list] = None
        # Conservative drain guard: ``expire_at`` never exceeds the
        # true ``touch[oldest] + window`` (touch values only grow and
        # grouped is kept in touch order, so the real threshold is
        # non-decreasing), which turns the per-record drain check into
        # one integer compare; crossing it recomputes exactly.
        expire_at = 0 if window is not None else float("inf")
        try:
            for line_number, raw_line, name, eid, fields in entries:
                if name != process_name:
                    if process_name is None:
                        report.process_name = process_name = name
                    elif strict:
                        raise LogFormatError(
                            f"log mixes processes {process_name!r} "
                            f"and {name!r}",
                            line_number,
                        )
                    else:
                        self._quarantine_line(
                            REASON_MIXED_PROCESS,
                            (
                                f"record of process {name!r} in a log "
                                f"of {process_name!r}"
                            ),
                            line_number,
                            raw_line,
                        )
                        continue
                if eid != cur_eid:
                    bucket = get_bucket(eid)
                    if bucket is None:
                        if eid in finalized:
                            if strict:
                                raise LogFormatError(
                                    f"record for execution {eid!r} "
                                    f"arrived after its finalization "
                                    f"window closed; raise "
                                    f"--stream-window or sort the log "
                                    f"by execution",
                                    line_number,
                                )
                            self._quarantine_line(
                                REASON_LATE_RECORD,
                                (
                                    f"execution {eid!r} already "
                                    f"finalized; record arrived more "
                                    f"than {window} records late"
                                ),
                                line_number,
                                raw_line,
                                execution_id=eid,
                            )
                            # ``bucket`` no longer belongs to the run's
                            # execution: the next record must look up.
                            cur_eid = None
                            continue
                        if (
                            max_executions is not None
                            and len(grouped) + len(finalized)
                            >= max_executions
                        ):
                            raise ResourceLimitError(
                                "max_executions",
                                max_executions,
                                f"execution {eid!r} at line "
                                f"{line_number}",
                                line_number=line_number,
                            )
                        bucket = grouped[eid] = []
                        newest = eid
                        if oldest is None:
                            oldest = eid
                    elif window is not None and newest != eid:
                        # Move to the recency end so the front stays
                        # oldest; skipped when already freshest.
                        grouped.pop(eid)
                        grouped[eid] = bucket
                        newest = eid
                        if oldest == eid:
                            oldest = next(iter(grouped))
                    cur_eid = eid
                if max_events is not None and len(bucket) >= max_events:
                    raise ResourceLimitError(
                        "max_events_per_execution",
                        max_events,
                        f"execution {eid!r} at line {line_number}",
                        line_number=line_number,
                    )
                activity = fields[1]
                if activity not in activities:
                    if (
                        max_activities is not None
                        and len(activities) >= max_activities
                    ):
                        raise ResourceLimitError(
                            "max_activities",
                            max_activities,
                            f"activity {activity!r} at line "
                            f"{line_number}",
                            line_number=line_number,
                        )
                    activities.add(activity)
                bucket.append(fields)
                record_index += 1
                touch[eid] = record_index
                if record_index < expire_at:
                    continue
                # One record's drain pass is one commit scope, as one
                # per-line push() is.
                while (
                    oldest is not None
                    and record_index - touch[oldest] >= window
                ):
                    records = grouped.pop(oldest)
                    del touch[oldest]
                    finalized.add(oldest)
                    emit(oldest, records, out)
                    oldest = next(iter(grouped)) if grouped else None
                    if oldest is None:
                        newest = None
                self._commit(out)
                expire_at = (
                    touch[oldest] + window
                    if oldest is not None
                    else record_index + window
                )
        finally:
            self._record_index = record_index

    def flush(self) -> List[Execution]:
        """Finalize every open bucket now, keeping the stream live.

        Flushed execution ids join the late-record set: a record for
        one of them arriving later is quarantined (or raises under
        ``strict``) exactly as if its window had expired.
        """
        out: List[Execution] = []
        for eid in list(self._grouped):
            records = self._grouped.pop(eid)
            self._touch.pop(eid, None)
            self._finalized.add(eid)
            self._emit(eid, records, out)
        self._commit(out)
        return out

    def close(self) -> List[Execution]:
        """End of stream: close the remaining buckets in first-seen
        order (with a window, recency order equals first-seen order for
        the survivors only in contiguous logs; first-seen matches
        batch)."""
        out: List[Execution] = []
        for eid in list(self._grouped):
            self._emit(eid, self._grouped.pop(eid), out)
        self._commit(out)
        return out


def _iter_ingest_core(
    numbered_lines: Iterable[Tuple[int, str]],
    parse_line: LineParser,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
) -> Iterator[Execution]:
    """The pull-based driver over :class:`IngestStream`."""
    stream = IngestStream(
        parse_line,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
    )
    for line_number, raw_line in numbered_lines:
        yield from stream.push(line_number, raw_line)
    yield from stream.close()


def _iter_ingest_blocks_core(
    raw_lines: Iterable[str],
    parse_line: LineParser,
    parse_batch: Optional[BatchParser],
    policy: str,
    limits: Optional[IngestLimits],
    quarantine: Optional[Quarantine],
    report: Optional[IngestReport],
    window: Optional[int],
) -> Iterator[Execution]:
    stream = IngestStream(
        parse_line,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
        parse_batch=parse_batch,
    )
    iterator = iter(raw_lines)
    base = 1
    while True:
        block = list(islice(iterator, INGEST_BLOCK_LINES))
        if not block:
            break
        yield from stream.push_batch(base, block)
        base += len(block)
    yield from stream.close()


def iter_ingest_blocks(
    raw_lines: Iterable[str],
    parse_line: LineParser,
    parse_batch: Optional[BatchParser] = None,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Batched counterpart of :func:`iter_ingest_lines`.

    Consumes *raw* lines (no pre-filtering, no numbering — blocks are
    contiguous, so line numbers fall out of block offsets), feeds them
    through :meth:`IngestStream.push_batch` in ``INGEST_BLOCK_LINES``
    chunks, and journals accepted executions exactly as the per-line
    driver does.  ``parse_batch`` is the codec's block scanner; without
    one every non-blank line goes through ``parse_line``.  Semantics —
    policies, limits, windowing, quarantine, report accounting, journal
    sequence numbers — are byte-identical to :func:`iter_ingest_lines`
    over the same lines; only the per-record dispatch overhead is
    amortized.
    """
    if journal_skip < 0:
        raise ValueError("journal_skip must be >= 0")
    stream = _iter_ingest_blocks_core(
        raw_lines,
        parse_line,
        parse_batch,
        policy,
        limits,
        quarantine,
        report,
        window,
    )
    if journal is None:
        yield from stream
        return
    yield from _journaled(stream, journal, journal_skip)


def ingest_blocks(
    raw_lines: Iterable[str],
    parse_line: LineParser,
    parse_batch: Optional[BatchParser] = None,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Batched counterpart of :func:`ingest_lines` over raw lines."""
    sink = quarantine if quarantine is not None else Quarantine()
    report = IngestReport(policy=policy)
    executions = list(
        iter_ingest_blocks(
            raw_lines,
            parse_line,
            parse_batch,
            policy=policy,
            limits=limits,
            quarantine=sink,
            report=report,
            window=None,
        )
    )
    log = EventLog(executions, process_name=report.process_name)
    return IngestResult(log=log, report=report, quarantine=sink)


def ingest_lines(
    numbered_lines: Iterable[Tuple[int, str]],
    parse_line: LineParser,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Ingest a pre-filtered line stream under an error policy.

    Parameters
    ----------
    numbered_lines:
        ``(line_number, raw_line)`` pairs; the codec has already removed
        blank/comment lines.
    parse_line:
        The codec's line parser; must raise :class:`LogFormatError` on
        any malformed line.
    policy:
        ``"strict"`` re-raises every error exactly like the plain
        readers; ``"skip"`` quarantines; ``"repair"`` quarantines bad
        lines but runs the repair pipeline over malformed executions.
    limits:
        Optional :class:`IngestLimits`; exceeding one raises
        :class:`ResourceLimitError` under every policy.
    quarantine:
        Optional sink (e.g. one bound to a dead-letter file); an
        in-memory sink is created when omitted.

    Raises
    ------
    LogFormatError, MalformedExecutionError
        Under ``strict`` only — identical to the plain readers.
    ResourceLimitError
        When a guard in ``limits`` is exceeded, under any policy.
    """
    sink = quarantine if quarantine is not None else Quarantine()
    report = IngestReport(policy=policy)
    # Batch = streaming with finalization deferred to end of stream:
    # every execution closes at EOF, in first-seen order, exactly as the
    # one-shot grouping did.
    executions = list(
        iter_ingest_lines(
            numbered_lines,
            parse_line,
            policy=policy,
            limits=limits,
            quarantine=sink,
            report=report,
            window=None,
        )
    )
    log = EventLog(executions, process_name=report.process_name)
    return IngestResult(log=log, report=report, quarantine=sink)


def publish_ingest_report(report: IngestReport, recorder) -> None:
    """Mirror an :class:`IngestReport` into a :mod:`repro.obs` recorder.

    Records the stable ``repro_ingest_*`` counters (see
    ``docs/OBSERVABILITY.md``): executions/records accepted, executions
    repaired plus the per-rule repair breakdown, and quarantined lines/
    executions with the per-reason breakdown.  No-op under the null
    recorder, so callers can pass their recorder unconditionally.
    """
    if not recorder.enabled:
        return
    recorder.count(
        "repro_ingest_executions_accepted_total",
        report.accepted_executions,
    )
    recorder.count(
        "repro_ingest_records_accepted_total", report.accepted_records
    )
    recorder.count(
        "repro_ingest_executions_repaired_total",
        report.repaired_executions,
    )
    for rule, count in sorted(report.repairs.items()):
        recorder.count(
            "repro_ingest_repairs_total", count, labels={"rule": rule}
        )
    recorder.count(
        "repro_ingest_quarantined_total",
        report.quarantined_lines,
        labels={"kind": "line"},
    )
    recorder.count(
        "repro_ingest_quarantined_total",
        report.quarantined_executions,
        labels={"kind": "execution"},
    )
    for reason, count in sorted(report.reasons.items()):
        recorder.count(
            "repro_ingest_quarantine_reasons_total",
            count,
            labels={"reason": reason},
        )
