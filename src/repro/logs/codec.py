"""Flowmark-style text serialization of workflow logs.

"Both the synthetic data and the Flowmark logs are lists of event records
consisting of the process name, the activity name, the event type, and the
timestamp" (Section 8).  The codec writes one record per line::

    <process>\t<execution>\t<activity>\t<START|END>\t<timestamp>[\t<o0,o1,...>]

The trailing output field is present only on END records that carry an
output vector (Flowmark itself "does not log the input and output
parameters", so logs without the field parse fine — and the conditions
learner simply has nothing to learn from, as the paper notes for its
Flowmark datasets).

Reading is streaming: :func:`iter_records` yields records one line at a
time, so the 10,000-execution logs of Table 1 never need to be held as text
in memory.  The ingest readers decode blocks of lines through
:func:`parse_batch`, the codec's raw scanner for
:class:`repro.logs.ingest.IngestStream`; a line it cannot accept goes
through :func:`parse_record`, which gives the canonical error.
"""

from __future__ import annotations

import io
import math
import sys
from collections import OrderedDict
from pathlib import Path
from typing import (
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import LogFormatError
from repro.logs.event_log import EventLog
from repro.logs.events import END_EVENT, START_EVENT, EventRecord
from repro.logs.execution import Execution
from repro.resilience.durable import durable_stream_writer
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICY_STRICT,
    IngestLimits,
    IngestReport,
    IngestResult,
    Quarantine,
    RawFields,
    ingest_blocks,
    iter_ingest_blocks,
)

# (line_number, raw_line, process_name, execution_id, fields) tuples
# from parse_batch.
ScannedBatch = List[Tuple[int, str, str, str, RawFields]]

FIELD_SEPARATOR = "\t"
OUTPUT_SEPARATOR = ","
DEFAULT_PROCESS = "process"

PathOrStr = Union[str, Path]


def format_record(record: EventRecord, process_name: str) -> str:
    """Serialize one record to its log line (no trailing newline)."""
    fields = [
        process_name,
        record.execution_id,
        record.activity,
        record.event_type,
        _format_time(record.timestamp),
    ]
    if record.output is not None:
        fields.append(
            OUTPUT_SEPARATOR.join(_format_time(v) for v in record.output)
        )
    return FIELD_SEPARATOR.join(fields)


def parse_record(line: str, line_number: Optional[int] = None) -> Tuple[
    str, EventRecord
]:
    """Parse one log line into ``(process_name, record)``.

    Raises
    ------
    LogFormatError
        On the wrong number of fields, a bad event type, or non-numeric
        timestamps/outputs.
    """
    fields = line.rstrip("\n").split(FIELD_SEPARATOR)
    if len(fields) not in (5, 6):
        raise LogFormatError(
            f"expected 5 or 6 tab-separated fields, got {len(fields)}",
            line_number,
        )
    process_name, execution_id, activity, event_type, time_text = fields[:5]
    try:
        timestamp = float(time_text)
    except ValueError as exc:
        raise LogFormatError(
            f"bad timestamp {time_text!r}", line_number
        ) from exc
    if not math.isfinite(timestamp):
        raise LogFormatError(
            f"timestamp must be finite, got {time_text!r}", line_number
        )
    output: Optional[Tuple[float, ...]] = None
    if len(fields) == 6 and fields[5]:
        try:
            output = tuple(
                float(v) for v in fields[5].split(OUTPUT_SEPARATOR)
            )
        except ValueError as exc:
            raise LogFormatError(
                f"bad output vector {fields[5]!r}", line_number
            ) from exc
        if any(not math.isfinite(v) for v in output):
            raise LogFormatError(
                f"output entries must be finite numbers, got "
                f"{fields[5]!r}",
                line_number,
            )
    try:
        record = EventRecord(
            timestamp=timestamp,
            execution_id=execution_id,
            activity=activity,
            event_type=event_type,
            output=output,
        )
    except ValueError as exc:
        raise LogFormatError(str(exc), line_number) from exc
    return process_name, record


def parse_batch(
    lines: Sequence[str],
    start: int = 1,
    memo: Optional[dict] = None,
) -> Tuple[ScannedBatch, Optional[Tuple[int, str]]]:
    """Scan a block of raw log lines into raw field tuples.

    The text codec's scanner for :class:`repro.logs.ingest.
    IngestStream` (see :data:`repro.logs.ingest.BatchParser`):
    ``lines[i]`` is line number ``start + i``, blank lines and ``#``
    comments are skipped (the same filter the streaming reader
    applies), and field validation is inlined so the per-line
    closure/exception overhead of the one-record parser is paid only
    on malformed input.  Each accepted line yields ``(line_number,
    raw_line, process_name, execution_id, fields)``.

    ``memo`` (caller-owned, or ``None``) maps a line with its execution
    id field cut out to the validated ``(process_name, fields)``: the
    id is the second field, so a line whose cut text equals a validated
    line's differs from it only in the id.  Every parsed line adds one
    entry.

    A line the scan cannot accept stops it with ``(entries,
    (line_number, raw_line))``; the caller routes that line through
    :func:`parse_record`, so errors match the per-line reader exactly,
    and resumes after it.
    """
    entries: ScannedBatch = []
    append = entries.append
    memo_get = memo.get if memo is not None else None
    isfinite = math.isfinite
    intern = sys.intern
    separator = FIELD_SEPARATOR
    times: dict = {}
    last_process_raw: Optional[str] = None
    last_process: str = ""
    last_eid: Optional[str] = None
    number = start - 1
    for line in lines:
        number += 1
        # Data lines start with a process-name character; only lines
        # opening with whitespace or '#' need the full filter check.
        if line[:1] in "# \t\n\r\x0b\x0c":
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
        if memo_get is not None:
            i = line.find(separator) + 1
            if i:
                j = line.find(separator, i)
                if j > i:
                    cached = memo_get(line[:i] + line[j:])
                    if cached is not None:
                        eid = line[i:j]
                        if eid == last_eid:
                            eid = last_eid
                        else:
                            last_eid = eid
                        append((number, line, cached[0], eid, cached[1]))
                        continue
        fields = line.rstrip("\n").split(separator)
        if len(fields) == 5:
            process_name, execution_id, activity, event_type, time_text = fields
            output = None
        elif len(fields) == 6:
            process_name, execution_id, activity, event_type, time_text = (
                fields[0], fields[1], fields[2], fields[3], fields[4]
            )
            if fields[5]:
                output = _slow_output(fields[5], number)
                if output is None:
                    return entries, (number, line)
            else:
                output = None
        else:
            return entries, (number, line)
        timestamp = times.get(time_text)
        if timestamp is None:
            try:
                timestamp = float(time_text)
            except ValueError:
                return entries, (number, line)
            if not isfinite(timestamp):
                return entries, (number, line)
            times[time_text] = timestamp
        if event_type == "END":
            event_type = END_EVENT
        elif event_type == "START" and output is None:
            event_type = START_EVENT
        else:
            return entries, (number, line)
        if not (activity and execution_id):
            return entries, (number, line)
        if process_name != last_process_raw:
            last_process_raw = process_name
            last_process = intern(process_name)
        raw = (timestamp, intern(activity), event_type, output)
        if memo is not None:
            cut = len(process_name) + 1
            memo[line[:cut] + line[cut + len(execution_id):]] = (
                last_process,
                raw,
            )
            last_eid = execution_id
        append((number, line, last_process, execution_id, raw))
    return entries, None


def _slow_output(
    text: str, line_number: int
) -> Optional[Tuple[float, ...]]:
    # Output vectors are rare (END records with logged parameters);
    # parse them through the same checks as parse_record and signal
    # failure with None so the caller stops the scan there.
    try:
        output = tuple(float(v) for v in text.split(OUTPUT_SEPARATOR))
    except ValueError:
        return None
    if any(not math.isfinite(v) for v in output):
        return None
    return output


def write_log(log: EventLog, stream: IO[str]) -> int:
    """Write ``log`` to a text stream; returns the number of lines."""
    process_name = log.process_name or DEFAULT_PROCESS
    count = 0
    for record in log.records():
        stream.write(format_record(record, process_name))
        stream.write("\n")
        count += 1
    return count


def write_log_file(
    log: EventLog, path: PathOrStr, durable: bool = True
) -> int:
    """Write ``log`` to ``path``; returns the number of lines written.

    Records stream through :func:`repro.resilience.durable.
    durable_stream_writer` — the file appears atomically and never
    torn, without buffering the whole log in memory.  ``durable=False``
    keeps the atomic replace but skips the fsyncs, the documented
    escape hatch for huge scratch exports (generated datasets,
    benchmark corpora) whose loss on power failure is acceptable.
    """
    with durable_stream_writer(path, fsync=durable) as handle:
        return write_log(log, handle)


def iter_records(
    stream: IO[str],
) -> Iterator[Tuple[str, EventRecord]]:
    """Stream ``(process_name, record)`` pairs from a text stream.

    Blank lines and ``#`` comment lines are skipped.
    """
    for line_number, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_record(line, line_number)


def ingest_log(
    stream: IO[str],
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Read a log under an error policy, returning log + ingest report.

    See :mod:`repro.logs.ingest` for the policy, limit, and quarantine
    semantics.  Under the default ``strict`` policy this is
    :func:`read_log` plus an (all-clean) report.
    """
    return ingest_blocks(
        stream,
        parse_record,
        parse_batch,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
    )


def ingest_log_file(
    path: PathOrStr,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Read a log file under an error policy (see :func:`ingest_log`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return ingest_log(
            handle, policy=policy, limits=limits, quarantine=quarantine
        )


def iter_ingest_log(
    stream: IO[str],
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Stream executions out of a log without building an ``EventLog``.

    The out-of-core reader behind ``mine --stream``: executions are
    yielded as their record buckets finalize, so memory stays bounded by
    the ``window`` of open executions instead of the whole log.  See
    :func:`repro.logs.ingest.iter_ingest_lines` for the policy, limit,
    window and report semantics.  Lines decode through
    :func:`parse_batch` in blocks; semantics are byte-identical to the
    per-line reader.
    """
    return iter_ingest_blocks(
        stream,
        parse_record,
        parse_batch,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
        journal=journal,
        journal_skip=journal_skip,
    )


def iter_ingest_log_file(
    path: PathOrStr,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Stream executions out of a log file (see :func:`iter_ingest_log`)."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from iter_ingest_log(
            handle,
            policy=policy,
            limits=limits,
            quarantine=quarantine,
            report=report,
            window=window,
            journal=journal,
            journal_skip=journal_skip,
        )


def read_log(stream: IO[str]) -> EventLog:
    """Read a full log from a text stream.

    All records must belong to one process; a log mixing process names
    raises :class:`LogFormatError` (the paper's problem statement fixes a
    single process per log).  Fail-fast: any malformed line raises.  Use
    :func:`ingest_log` for the policy-driven fault-tolerant reader.
    """
    return ingest_log(stream).log


def read_log_file(path: PathOrStr) -> EventLog:
    """Read a full log from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_log(handle)


def read_process_logs(stream: IO[str]) -> "OrderedDict[str, EventLog]":
    """Read a stream containing interleaved logs of *several* processes.

    A Flowmark installation logs every process into one audit trail; the
    first record field names the process.  Records are partitioned by
    that field and each partition becomes its own :class:`EventLog`.
    Returns an ordered mapping keyed by process name, in order of first
    appearance.
    """
    per_process: "OrderedDict[str, list]" = OrderedDict()
    for name, record in iter_records(stream):
        per_process.setdefault(name, []).append(record)
    return OrderedDict(
        (name, EventLog.from_records(records, process_name=name))
        for name, records in per_process.items()
    )


def read_process_logs_file(
    path: PathOrStr,
) -> "OrderedDict[str, EventLog]":
    """Read a multi-process log file (see :func:`read_process_logs`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_process_logs(handle)


def write_process_logs(
    logs: Iterable[EventLog], stream: IO[str]
) -> int:
    """Write several process logs into one interleaved stream.

    Records are merged in timestamp order across processes, mimicking a
    shared installation-wide audit trail; returns the line count.
    """
    tagged = []
    for log in logs:
        name = log.process_name or DEFAULT_PROCESS
        for record in log.records():
            tagged.append((record.timestamp, name, record))
    tagged.sort(key=lambda item: (item[0], item[1]))
    for _, name, record in tagged:
        stream.write(format_record(record, name))
        stream.write("\n")
    return len(tagged)


def log_to_text(log: EventLog) -> str:
    """Serialize ``log`` to a single string (tests and small logs)."""
    buffer = io.StringIO()
    write_log(log, buffer)
    return buffer.getvalue()


def log_from_text(text: str) -> EventLog:
    """Parse a log from a string produced by :func:`log_to_text`."""
    return read_log(io.StringIO(text))


def log_size_bytes(log: EventLog) -> int:
    """Return the size, in bytes, of the log's serialized form.

    Table 1 and Table 3 of the paper report physical log sizes; the benches
    use this to report the analogous column.
    """
    process_name = log.process_name or DEFAULT_PROCESS
    total = 0
    for record in log.records():
        total += len(format_record(record, process_name)) + 1
    return total


def _format_time(value: float) -> str:
    # Integral floats print as integers to keep log files compact.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
