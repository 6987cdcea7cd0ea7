"""JSON-lines interchange for workflow logs.

The tab-separated codec (:mod:`repro.logs.codec`) mirrors the paper's
Flowmark audit format; this module provides the same records as JSON
lines for interchange with modern tooling — one object per line::

    {"process": "claims", "execution": "run-000001",
     "activity": "Assess", "type": "END", "time": 3.5,
     "output": [42.0, 7.0]}

START events carry ``"output": null``.  Field names are fixed; unknown
fields are ignored on read so sidecar metadata survives round-trips
through other tools.

:func:`parse_batch` is the codec's one block scanner, shared by batch
ingest, the fused ``mine --stream`` fold and the daemon: the shape
:func:`record_to_json` writes decodes by one regex match, any other
valid line through the JSON decoder, and only lines
:func:`record_from_json` must judge (errors, coercions) leave the scan.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import islice
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import LogFormatError
from repro.logs.event_log import EventLog
from repro.logs.events import END_EVENT, START_EVENT, EventRecord
from repro.logs.execution import Execution
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.resilience.durable import durable_stream_writer
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    INGEST_BLOCK_LINES,
    POLICY_STRICT,
    IngestLimits,
    IngestReport,
    IngestResult,
    Quarantine,
    RawFields,
    ingest_blocks,
    iter_ingest_blocks,
)

if TYPE_CHECKING:
    from repro.core.state import MiningState

PathOrStr = Union[str, Path]

_REQUIRED_FIELDS = ("process", "execution", "activity", "type", "time")


def _require_number(
    value: object, what: str, line_number: Optional[int]
) -> float:
    # ``float(True)`` and ``float("3.5")`` both succeed, so explicit
    # type checks are needed to reject non-numeric JSON values; NaN and
    # Infinity are valid JSON extensions but poison timestamp ordering.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LogFormatError(
            f"{what} must be a number, got {value!r}", line_number
        )
    try:
        number = float(value)
    except OverflowError:
        # An integer past the float range is as infinite as
        # ``Infinity`` (and its digits would make an unbounded message).
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise LogFormatError(
            f"{what} must be finite, got {number!r}", line_number
        )
    return number


def _isfinite(value: Union[int, float]) -> bool:
    """``math.isfinite``, False for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def record_to_json(record: EventRecord, process_name: str) -> str:
    """Serialize one record to its JSON line (no trailing newline)."""
    return json.dumps(
        {
            "process": process_name,
            "execution": record.execution_id,
            "activity": record.activity,
            "type": record.event_type,
            "time": record.timestamp,
            "output": (
                list(record.output) if record.output is not None else None
            ),
        },
        sort_keys=True,
    )


def record_from_json(
    line: str, line_number: Optional[int] = None
) -> Tuple[str, EventRecord]:
    """Parse one JSON line into ``(process_name, record)``."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError: an integer literal past the
        # interpreter's digit limit, or nesting past the recursion limit.
        raise LogFormatError(f"invalid JSON: {exc}", line_number) from exc
    if not isinstance(payload, dict):
        raise LogFormatError("record must be a JSON object", line_number)
    missing = [f for f in _REQUIRED_FIELDS if f not in payload]
    if missing:
        raise LogFormatError(
            f"missing fields {missing}", line_number
        )
    output = payload.get("output")
    if output is not None:
        if not isinstance(output, list):
            raise LogFormatError(
                "output must be a list or null", line_number
            )
        output = tuple(
            _require_number(v, "output entry", line_number) for v in output
        )
    timestamp = _require_number(payload["time"], "time", line_number)
    try:
        record = EventRecord(
            timestamp=timestamp,
            execution_id=str(payload["execution"]),
            activity=str(payload["activity"]),
            event_type=str(payload["type"]),
            output=output,
        )
    except (TypeError, ValueError) as exc:
        raise LogFormatError(str(exc), line_number) from exc
    return str(payload["process"]), record


#: JSON's number grammar, verbatim.  ``float()`` accepts a superset
#: (``"01"``, ``"+1"``, ``"nan"``); anchoring the scanner to the exact
#: grammar keeps it from accepting lines ``json.loads`` would reject.
_JSON_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

#: The exact shape :func:`record_to_json` emits (``sort_keys=True``,
#: default separators, no escape sequences in any string).  Lines that
#: do not match — foreign key order, escaped characters, sidecar fields
#: — fall back to :func:`json.loads`, so matching is a pure fast path.
#: String fields exclude raw control characters because strict JSON
#: rejects them; allowing them here would accept lines the per-line
#: reader errors on.
_CANONICAL_LINE = re.compile(
    r'\{"activity": "([^"\\\x00-\x1f]+)", '
    r'"execution": "([^"\\\x00-\x1f]+)", '
    r'"output": (null|\[(?:'
    + _JSON_NUMBER
    + r"(?:, "
    + _JSON_NUMBER
    + r')*)?\]), '
    r'"process": "([^"\\\x00-\x1f]*)", '
    r'"time": (' + _JSON_NUMBER + r'), '
    r'"type": "(START|END)"\}\s*\Z'
)

#: Everything but the execution id of a canonical line is literal
#: text, so a line whose id-excised text equals a previously validated
#: line's is itself canonical — provided the excised id is one valid
#: id token.  This pattern is that final check.
_EID_TOKEN = re.compile(r'[^"\\\x00-\x1f]+\Z')

#: The key whose value :func:`parse_batch` excises.  Its quotes cannot
#: appear inside any canonical string value, so its first occurrence in
#: a canonical line is exactly the grammar position.
_EID_PREFIX = '"execution": "'
_EID_PREFIX_LEN = len(_EID_PREFIX)


#: ``_raw_decode(line)`` decodes the JSON value at the start of
#: ``line`` and returns it with its end, without the two whitespace
#: regex passes of :func:`json.loads`.  A line it decodes with nothing
#: but JSON whitespace after the value is one ``json.loads`` decodes
#: to the same value.
_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _loads_fields(
    line: str,
) -> Optional[Tuple[str, str, RawFields]]:
    """``(process, execution_id, fields)`` of a valid non-canonical line.

    The JSON-decoder tier of :func:`parse_batch`: any key order,
    escapes and sidecar fields decode here.  Returns ``None`` for
    anything :func:`record_from_json` must judge — a bad line, or one
    it accepts only by coercion (non-string names).
    """
    try:
        payload, end = _raw_decode(line)
        if end != len(line) and line[end:].strip(_JSON_SPACE):
            return None
        process = payload["process"]
        execution_id = payload["execution"]
        activity = payload["activity"]
        event_type = payload["type"]
        timestamp = payload["time"]
        output = payload.get("output")
    except (KeyError, TypeError, ValueError, RecursionError):
        return None
    if not (
        type(process) is str
        and type(execution_id) is str
        and execution_id
        and type(activity) is str
        and activity
        and type(timestamp) in (int, float)
        and _isfinite(timestamp)
    ):
        return None
    if event_type == "END":
        if output is not None:
            if type(output) is not list:
                return None
            values = []
            for value in output:
                if type(value) not in (int, float) or not _isfinite(value):
                    return None
                values.append(float(value))
            output = tuple(values)
        kind = END_EVENT
    elif event_type == "START" and output is None:
        kind = START_EVENT
    else:
        return None
    fields = (float(timestamp), sys.intern(activity), kind, output)
    return sys.intern(process), execution_id, fields


def parse_batch(
    lines: Sequence[str],
    start: int = 1,
    memo: Optional[dict] = None,
) -> Tuple[
    List[Tuple[int, str, str, str, RawFields]],
    Optional[Tuple[int, str]],
]:
    """Scan a block of JSON lines into raw field tuples.

    The JSON-lines scanner of :class:`repro.logs.ingest.IngestStream`
    (see :data:`repro.logs.ingest.BatchParser`): ``lines[i]`` is line
    number ``start + i``, blank lines are skipped (this codec has no
    comments), and each accepted line yields ``(line_number, raw_line,
    process, execution_id, fields)`` where ``fields`` is the shared
    :data:`RawFields` tuple — no :class:`EventRecord` is built.

    Three tiers decode a line.  ``memo`` (caller-owned and
    caller-bounded, or ``None``) maps the line text with the execution
    id excised to its validated ``(process, fields)``; it answers
    byte-repeated lines under fresh execution ids with two substring
    finds and a dict hit.  A miss validates against the canonical
    grammar of :func:`record_to_json` and, when the memo is on, stores
    the line.  Anything else — foreign key order, escapes, sidecar
    fields — decodes through :func:`json.loads`; such a line cannot be
    answered from the memo (its execution id has no fixed place), so
    it is recorded under its line number, which no lookup uses, and
    the entry only counts the miss.

    Only lines *proven* valid are returned.  A line none of the tiers
    accepts — malformed, non-finite numbers, a START with an output,
    non-string names — stops the scan with ``(entries, (line_number,
    raw_line))`` so the caller can route that one line through
    :func:`record_from_json` for byte-identical errors and coercions,
    then resume after it.
    """
    entries: List[Tuple[int, str, str, str, RawFields]] = []
    append = entries.append
    memo_get = memo.get if memo is not None else None
    match = _CANONICAL_LINE.match
    eid_ok = _EID_TOKEN.match
    intern = sys.intern
    isfinite = math.isfinite
    prefix_len = _EID_PREFIX_LEN
    last_eid: Optional[str] = None
    number = start - 1
    for line in lines:
        number += 1
        if memo_get is not None:
            i = line.find(_EID_PREFIX)
            if i >= 0:
                i += prefix_len
                j = line.find('"', i)
                if j > i:
                    cached = memo_get(line[:i] + line[j:])
                    if cached is not None:
                        eid = line[i:j]
                        if eid != last_eid:
                            if eid_ok(eid) is None:
                                return entries, (number, line)
                            last_eid = eid
                        else:
                            # Reuse the run's id object so downstream
                            # equality checks short-circuit on identity.
                            eid = last_eid
                        process, fields = cached
                        append((number, line, process, eid, fields))
                        continue
        m = match(line)
        if m is None:
            if not line.strip():
                continue
            decoded = _loads_fields(line)
            if decoded is None:
                return entries, (number, line)
            process, eid, fields = decoded
            if memo is not None:
                memo[number] = None
            append((number, line, process, eid, fields))
            continue
        activity, eid, output_src, process, time_src, event_type = (
            m.groups()
        )
        timestamp = float(time_src)
        if not isfinite(timestamp):
            return entries, (number, line)
        output: Optional[Tuple[float, ...]]
        if output_src == "null":
            output = None
        else:
            if event_type != "END":
                # A START output is an error record_from_json reports.
                return entries, (number, line)
            values = []
            ok = True
            if len(output_src) > 2:
                for v in output_src[1:-1].split(", "):
                    value = float(v)
                    if not isfinite(value):
                        ok = False
                        break
                    values.append(value)
            if not ok:
                return entries, (number, line)
            output = tuple(values)
        fields = (
            timestamp,
            intern(activity),
            END_EVENT if event_type == "END" else START_EVENT,
            output,
        )
        process = intern(process)
        if memo is not None:
            # Group 2's character class is the id-token grammar, so the
            # matched id needs no separate check; it still primes the
            # hit path's one-entry cache.
            last_eid = eid
            a, b = m.span(2)
            memo[line[:a] + line[b:]] = (process, fields)
        append((number, line, process, eid, fields))
    return entries, None


def write_log_jsonl(log: EventLog, stream: IO[str]) -> int:
    """Write ``log`` as JSON lines; returns the line count."""
    process_name = log.process_name or "process"
    count = 0
    for record in log.records():
        stream.write(record_to_json(record, process_name))
        stream.write("\n")
        count += 1
    return count


def ingest_log_jsonl(
    stream: IO[str],
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Read a JSON-lines log under an error policy.

    Same semantics as :func:`repro.logs.codec.ingest_log`; see
    :mod:`repro.logs.ingest` for policies, limits, and quarantine.
    """
    return ingest_blocks(
        stream,
        record_from_json,
        parse_batch,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
    )


def ingest_log_jsonl_file(
    path: PathOrStr,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
) -> IngestResult:
    """Read a JSON-lines log file under an error policy."""
    with open(path, "r", encoding="utf-8") as handle:
        return ingest_log_jsonl(
            handle, policy=policy, limits=limits, quarantine=quarantine
        )


def iter_ingest_log_jsonl(
    stream: IO[str],
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Stream executions out of a JSON-lines log (no ``EventLog``).

    JSON-lines counterpart of :func:`repro.logs.codec.iter_ingest_log`;
    see :func:`repro.logs.ingest.iter_ingest_lines` for the policy,
    limit, window and report semantics.
    """
    return iter_ingest_blocks(
        stream,
        record_from_json,
        parse_batch,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
        journal=journal,
        journal_skip=journal_skip,
    )


def iter_ingest_log_jsonl_file(
    path: PathOrStr,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    journal=None,
    journal_skip: int = 0,
) -> Iterator[Execution]:
    """Stream executions out of a JSON-lines log file."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from iter_ingest_log_jsonl(
            handle,
            policy=policy,
            limits=limits,
            quarantine=quarantine,
            report=report,
            window=window,
            journal=journal,
            journal_skip=journal_skip,
        )


class StreamFold(NamedTuple):
    """What :func:`fold_log_jsonl_file` folded.

    ``first_activities``/``last_activities`` hold every folded
    execution's first and last activity (a unique one is the model's
    source/sink); ``line_memo_hits``/``line_memo_misses`` count the
    scanned lines the line memo answered or had to parse while on.
    """

    state: "MiningState"
    first_activities: Set[str]
    last_activities: Set[str]
    line_memo_hits: int
    line_memo_misses: int


def fold_log_jsonl_file(
    path: PathOrStr,
    policy: str = POLICY_STRICT,
    limits: Optional[IngestLimits] = None,
    quarantine: Optional[Quarantine] = None,
    report: Optional[IngestReport] = None,
    window: Optional[int] = DEFAULT_STREAM_WINDOW,
    state: Optional["MiningState"] = None,
    labelled: bool = False,
    recorder: Recorder = NULL_RECORDER,
) -> StreamFold:
    """Fold a JSON-lines log file straight into a ``MiningState``.

    The engine behind ``mine --stream`` on ``.jsonl`` logs: the
    batched equivalent of ``fold_executions(iter_ingest_log_jsonl_file(
    path), labelled=labelled)``, decoding blocks of lines through
    :func:`parse_batch` and folding clean buckets by activity sequence
    without building records or executions (see
    :class:`repro.logs.fastfold.FoldingIngestStream`).  Policy, limit,
    quarantine, window and report semantics match the iterator path
    byte for byte, and so do the folded state and the
    ``repro_stream_executions_total`` / ``repro_ingest_variant_memo_total``
    counters; ``repro_ingest_line_memo_total`` adds the line memo's
    traffic.  Journaling keeps using the iterator — this path never
    yields the executions it needs.

    Folds into ``state`` when given (its ``labelled`` flag must match),
    else into a fresh state.
    """
    from repro.core.state import fold_counters, publish_fold
    from repro.logs.fastfold import FoldingIngestStream

    if state is not None and state.labelled != labelled:
        raise ValueError(
            "state.labelled does not match the requested labelled flag"
        )
    stream = FoldingIngestStream(
        record_from_json,
        state=state,
        policy=policy,
        limits=limits,
        quarantine=quarantine,
        report=report,
        window=window,
        parse_batch=parse_batch,
        labelled=labelled,
    )
    before = fold_counters(stream.state)
    with open(path, "r", encoding="utf-8") as handle:
        start = 1
        while True:
            block = list(islice(handle, INGEST_BLOCK_LINES))
            if not block:
                break
            stream.push_batch(start, block)
            start += len(block)
    stream.close()
    publish_fold(recorder, stream.state, before)
    for event, value in (
        ("hit", stream.line_memo_hits),
        ("miss", stream.line_memo_misses),
    ):
        if value:
            recorder.count(
                "repro_ingest_line_memo_total",
                value,
                labels={"event": event},
            )
    return StreamFold(
        stream.state,
        stream.first_activities,
        stream.last_activities,
        stream.line_memo_hits,
        stream.line_memo_misses,
    )


def read_log_jsonl(stream: IO[str]) -> EventLog:
    """Read a JSON-lines log (single process, like the text codec).

    Fail-fast, like :func:`repro.logs.codec.read_log`; errors carry the
    offending 1-based line number.  Use :func:`ingest_log_jsonl` for the
    policy-driven fault-tolerant reader.
    """
    return ingest_log_jsonl(stream).log


def write_log_jsonl_file(
    log: EventLog, path: PathOrStr, durable: bool = True
) -> int:
    """Write a JSON-lines log file.

    Streams records through :func:`repro.resilience.durable.
    durable_stream_writer`, so ``path`` appears atomically and is
    never torn.  ``durable=False`` keeps the atomic replace but skips
    the fsyncs — the escape hatch for large scratch exports where
    throughput matters more than crash durability.
    """
    with durable_stream_writer(path, fsync=durable) as handle:
        return write_log_jsonl(log, handle)


def read_log_jsonl_file(path: PathOrStr) -> EventLog:
    """Read a JSON-lines log file."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_log_jsonl(handle)
