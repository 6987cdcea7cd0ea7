"""Fused ingest -> fold: line blocks straight into a MiningState.

Algorithm 2 depends on a log only through its execution variants — the
activity sequences and the ordered pairs they imply — yet the classic
streaming path builds an :class:`~repro.logs.events.EventRecord` per
line and an :class:`~repro.logs.execution.Execution` per execution
before the state collapses it onto a known variant.
:class:`FoldingIngestStream` skips both for the common case:

* With a codec ``scan_batch`` hook (:func:`repro.logs.jsonl.
  scan_batch`), lines decode into shared *raw field tuples* —
  ``(timestamp, activity, event type, output)`` — and buckets hold
  those tuples instead of records.  A line memo keyed on the
  id-excised line text answers byte-repeated lines with two substring
  finds and a dict hit.  Real logs carry absolute timestamps, so their
  lines rarely repeat: the stream measures what share of each block
  the memo answered and, below :data:`LINE_MEMO_MIN_HIT_RATIO`, clears
  it and scans memo-free (a plain regex pass), retrying it on one block
  in :data:`LINE_MEMO_RETRY_EVERY`.  A block that starts on an empty
  memo is its warm-up and is never judged.
* A finalized bucket that :func:`_clean_sequence` proves is a chain of
  instances folds by its activity sequence alone
  (:meth:`~repro.core.state.MiningState.fold_sequence`), which consults
  the state's prepared-variant memo — keyed on vertex ids, so repeated
  variants hit whatever their timestamps.  Every other bucket is built
  into an Execution and folded through ``state.update``.

Equivalence with the classic path holds by construction: a clean
bucket's variant is fully determined by its activity sequence, and
both entries share one memo with one key space, so the folded state
and its memo counters match ``fold_executions`` over the same lines.
Repair-policy streams always take the classic finalize (repairs
inspect the raw records), and lines the scanner cannot prove canonical
re-enter :meth:`push` individually, which keeps every error,
quarantine entry and report field byte-identical to per-line
ingestion.

This is the engine behind ``mine --stream`` on JSON-lines logs (via
:func:`repro.logs.jsonl.fold_log_jsonl_file`) and the ingest cells of
``benchmarks/perf_harness.py``; anything that needs the executions
themselves (journaling, the service's durable sessions) keeps using
:class:`~repro.logs.ingest.IngestStream` + ``state.update``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.state import MiningState
from repro.errors import LogFormatError
from repro.logs.events import START_EVENT, EventRecord
from repro.logs.execution import Execution
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICY_REPAIR,
    POLICY_STRICT,
    REASON_LATE_RECORD,
    REASON_MIXED_PROCESS,
    BatchParser,
    IngestLimits,
    IngestReport,
    IngestStream,
    LineParser,
    Quarantine,
    ResourceLimitError,
    _finalize_execution_fast,
)

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

#: A codec's raw block scanner (see :func:`repro.logs.jsonl.
#: scan_batch`): ``(lines, start, memo) -> (entries, bad_line)``.
RawScanner = Callable[..., Tuple[List[tuple], Optional[Tuple[int, str]]]]


def _clean_sequence(items: Sequence) -> Optional[List[str]]:
    """The activity sequence of a *clean* all-tuple bucket, else None.

    Clean means the arrival order already tells the whole story:
    strictly increasing timestamps and a strict START/END alternation
    where each END closes the START immediately before it.  For such a
    bucket ``Execution.from_grouped_records`` is guaranteed to accept
    — no sorting fallback, FIFO pairing degenerates to adjacent pairs,
    the instances come out ordered and strictly sequential — so the
    variant is fully determined by the activity sequence and the
    caller can fold it (``MiningState.fold_sequence``) without building
    records or an Execution.
    Anything else (odd shapes, ties, interleavings, EventRecords mixed
    in) returns None and takes the classic path.
    """
    count = len(items)
    if count & 1:
        return None
    sequence: List[str] = []
    append = sequence.append
    last = float("-inf")
    index = 0
    try:
        while index < count:
            start = items[index]
            end = items[index + 1]
            if (
                start[2] is not START_EVENT
                or end[2] is START_EVENT
                or start[1] != end[1]
                or not (last < start[0] < end[0])
            ):
                return None
            last = end[0]
            append(start[1])
            index += 2
    except TypeError:
        # An EventRecord slipped into the bucket via per-line push().
        return None
    return sequence


def _materialize(eid: str, items: Sequence) -> List[EventRecord]:
    """Rebuild a bucket's records; field tuples become EventRecords.

    Buckets may mix raw field tuples (scanner-fed) with EventRecords
    (per-line ``push``-fed); finalization, repair and quarantine all
    want real records, built here only when actually needed.
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


class FoldingIngestStream(IngestStream):
    """An :class:`IngestStream` that folds into a state it owns.

    ``push``/``push_batch``/``flush``/``close`` keep their contracts —
    same policies, limits, windowing, quarantine and report accounting
    — but finalized executions are folded into ``state`` instead of
    being returned (the lists come back empty).  Track progress via
    ``state.execution_count`` or the report; ``first_activities`` and
    ``last_activities`` collect each folded execution's first and last
    activity (the streaming CLI's source/sink evidence).

    With ``scan_batch`` (the codec's raw scanner), ``push_batch``
    decodes through the zero-object path and open buckets hold raw
    field tuples; without it, blocks decode through ``parse_batch``
    into records as usual.  Either way clean buckets fold by activity
    sequence through the state's prepared-variant memo.
    ``line_memo_hits``/``line_memo_misses`` count the scanned lines the
    line memo answered or had to parse while it was on.
    """

    def __init__(
        self,
        parse_line: LineParser,
        state: Optional[MiningState] = None,
        policy: str = POLICY_STRICT,
        limits: Optional[IngestLimits] = None,
        quarantine: Optional[Quarantine] = None,
        report: Optional[IngestReport] = None,
        window: Optional[int] = DEFAULT_STREAM_WINDOW,
        parse_batch: Optional[BatchParser] = None,
        scan_batch: Optional[RawScanner] = None,
        labelled: bool = False,
    ) -> None:
        super().__init__(
            parse_line,
            policy=policy,
            limits=limits,
            quarantine=quarantine,
            report=report,
            window=window,
            parse_batch=parse_batch,
        )
        self.state = (
            state if state is not None else MiningState(labelled=labelled)
        )
        self._scan_batch = scan_batch
        self._line_memo: dict = {}
        # Blocks left to scan memo-free before the line memo is retried.
        self._line_memo_idle = 0
        self.line_memo_hits = 0
        self.line_memo_misses = 0
        self.first_activities: Set[str] = set()
        self.last_activities: Set[str] = set()
        # Clean buckets skip Execution construction; repair-policy and
        # slow-finalize streams keep the classic finalize throughout.
        self._fold_clean = self.policy != POLICY_REPAIR and (
            self._fast_finalize or scan_batch is not None
        )
        # Folds staged by _emit and applied by _commit at the
        # boundaries where per-line ingestion hands its caller the
        # finalized list: after each record's drain pass, after each
        # push(), after a whole flush()/close().  A strict-policy error
        # inside one of those scopes discards the scope's folds —
        # exactly the executions a per-line caller never received from
        # the raising call — so the folded state matches per-line
        # ingestion even around errors.  Each entry is an activity
        # sequence (a clean bucket) or an accepted Execution.
        self._pending: List[object] = []

    def _commit(self) -> None:
        """Apply the staged folds; the current scope succeeded."""
        pending = self._pending
        if not pending:
            return
        state = self.state
        firsts = self.first_activities
        lasts = self.last_activities
        for item in pending:
            # update() folds an activity sequence via fold_sequence.
            state.update(item)
            if type(item) is list:
                firsts.add(item[0])
                lasts.add(item[-1])
            elif len(item):
                firsts.add(item.first_activity)
                lasts.add(item.last_activity)
        pending.clear()

    def push(self, line_number: int, raw_line: str) -> List[Execution]:
        try:
            result = super().push(line_number, raw_line)
        except BaseException:
            self._pending.clear()
            raise
        self._commit()
        return result

    def _push_block(
        self, start: int, lines: Sequence[str], out: List[Execution]
    ) -> None:
        scan = self._scan_batch
        if scan is None:
            # No raw scanner: decode through parse_batch as the base
            # class does, but drive the bookkeeping one entry at a time
            # so folds commit per record — the granularity at which a
            # per-line caller banks its executions.
            parse_batch = self._parse_batch
            pending = self._pending
            total = len(lines)
            index = 0
            while index < total:
                entries, error = parse_batch(
                    lines[index:] if index else lines, start + index
                )
                for entry in entries:
                    try:
                        self._ingest_entries([entry], out)
                    except BaseException:
                        pending.clear()
                        raise
                    self._commit()
                if error is None:
                    break
                bad = error.line_number - start
                out.extend(self.push(error.line_number, lines[bad]))
                index = bad + 1
            return
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
                # stored under a fresh key.
                misses += len(memo) - before
            if entries:
                self._fold_entries(entries)
            if bad is None:
                break
            number, line = bad
            # Not provably canonical: the per-line parser decides —
            # identical acceptance, errors and quarantine entries.
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

    def _fold_entries(self, entries: List[tuple]) -> None:
        # The push() bookkeeping loop over scanned raw entries; any
        # change here must mirror IngestStream.push()/_ingest_entries
        # — the hypothesis parity suite holds the paths equal.  The
        # only shortcut is ``cur_eid``: for a run of records of the
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
        strict = self.policy == POLICY_STRICT
        max_executions = limits.max_executions
        max_events = limits.max_events_per_execution
        max_activities = limits.max_activities
        process_name = report.process_name
        record_index = self._record_index
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
        out: List[Execution] = []
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
                            )
                        bucket = grouped[eid] = []
                        newest = eid
                        if oldest is None:
                            oldest = eid
                    elif window is not None and newest != eid:
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
                        )
                    activities.add(activity)
                bucket.append(fields)
                record_index += 1
                touch[eid] = record_index
                if record_index < expire_at:
                    continue
                # One record's drain pass is one commit scope: a strict
                # finalize error on any expiring bucket discards the
                # whole pass's staged folds, just as the raising
                # per-line push() discards its returned list.
                try:
                    while (
                        oldest is not None
                        and record_index - touch[oldest] >= window
                    ):
                        records = grouped.pop(oldest)
                        del touch[oldest]
                        finalized.add(oldest)
                        self._emit(oldest, records, out)
                        oldest = next(iter(grouped)) if grouped else None
                        if oldest is None:
                            newest = None
                except BaseException:
                    self._pending.clear()
                    raise
                self._commit()
                expire_at = (
                    touch[oldest] + window
                    if oldest is not None
                    else record_index + window
                )
        finally:
            self._record_index = record_index

    def flush(self) -> List[Execution]:
        # One flush is one commit scope: the base flush builds its
        # whole list before the caller sees anything, so an error on a
        # later bucket loses every execution of the flush — the staged
        # folds must vanish with them.
        try:
            out = super().flush()
        except BaseException:
            self._pending.clear()
            raise
        self._commit()
        return out

    def close(self) -> List[Execution]:
        try:
            out = super().close()
        except BaseException:
            self._pending.clear()
            raise
        self._commit()
        return out

    def _emit(
        self, eid: str, items: List, out: List[Execution]
    ) -> None:
        # Report and quarantine accounting happen here, eagerly — the
        # per-line path also mutates them before its caller banks the
        # list.  Folds are only *staged* (see _commit): nothing touches
        # the state until the enclosing scope survives.
        pending = self._pending
        if self._fold_clean:
            sequence = _clean_sequence(items)
            if sequence is not None:
                report = self.report
                report.accepted_executions += 1
                report.accepted_records += len(items)
                pending.append(sequence)
                return
            execution = _finalize_execution_fast(
                eid, _materialize(eid, items), self.policy,
                self.quarantine, self.report,
            )
            if execution is not None:
                pending.append(execution)
            return
        # Classic finalize; accepted executions are staged as full
        # state.update folds, nothing is handed back.
        before = len(out)
        super()._emit(eid, _materialize(eid, items), out)
        pending.extend(out[before:])
        del out[before:]
