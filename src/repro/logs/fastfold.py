"""Fused ingest -> fold: line blocks straight into a MiningState.

Algorithm 2 depends on a log only through its execution variants — the
activity sequences and the ordered pairs they imply — yet the classic
streaming path builds an :class:`~repro.logs.events.EventRecord` per
record and an :class:`~repro.logs.execution.Execution` per execution
before the state collapses it onto a known variant.
:class:`FoldingIngestStream` runs the one block engine of
:class:`~repro.logs.ingest.IngestStream` (codec scanner, line memo,
buckets of raw field tuples) and changes only what happens when a
bucket finalizes: one that :func:`_clean_sequence` proves is a chain
of instances folds by its activity sequence alone
(:meth:`~repro.core.state.MiningState.fold_sequence`), which consults
the state's prepared-variant memo — keyed on vertex ids, so repeated
variants hit whatever their timestamps.  Every other bucket is built
into an Execution and folded through ``state.update``.

Equivalence with the classic path holds by construction: a clean
bucket's variant is fully determined by its activity sequence, and
both entries share one memo with one key space, so the folded state
and its memo counters match ``fold_executions`` over the same lines.
Repair-policy streams always take the classic finalize (repairs
inspect the raw records).

This is the engine behind ``mine --stream`` on JSON-lines logs (via
:func:`repro.logs.jsonl.fold_log_jsonl_file`) and the ingest cells of
``benchmarks/perf_harness.py``; anything that needs the executions
themselves (journaling, the service's durable sessions) uses
:class:`~repro.logs.ingest.IngestStream` + ``state.update``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.state import MiningState
from repro.logs.events import START_EVENT
from repro.logs.execution import Execution
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICY_REPAIR,
    POLICY_STRICT,
    BatchParser,
    IngestLimits,
    IngestReport,
    IngestStream,
    LineParser,
    Quarantine,
)


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


class FoldingIngestStream(IngestStream):
    """An :class:`IngestStream` that folds into a state it owns.

    ``push``/``push_batch``/``flush``/``close`` keep their contracts —
    same policies, limits, windowing, quarantine and report accounting
    — but finalized executions are folded into ``state`` instead of
    being returned (the lists come back empty).  Track progress via
    ``state.execution_count`` or the report; ``first_activities`` and
    ``last_activities`` collect each folded execution's first and last
    activity (the streaming CLI's source/sink evidence).
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
        self.first_activities: Set[str] = set()
        self.last_activities: Set[str] = set()
        # Repairs inspect the raw records, so repair-policy streams
        # keep the classic finalize throughout.
        self._fold_clean = self.policy != POLICY_REPAIR

    def _commit(self, out: List) -> None:
        # _emit only stages folds on ``out``; they reach the state here,
        # at the boundaries where per-line ingestion hands its caller
        # the finalized list.  A strict-policy error inside one of
        # those scopes drops the scope's ``out`` — exactly the
        # executions a per-line caller never received from the raising
        # call — so the folded state matches per-line ingestion even
        # around errors.  Each entry is an activity sequence (a clean
        # bucket) or an accepted Execution.
        if not out:
            return
        state = self.state
        firsts = self.first_activities
        lasts = self.last_activities
        for item in out:
            # update() folds an activity sequence via fold_sequence.
            state.update(item)
            if type(item) is list:
                firsts.add(item[0])
                lasts.add(item[-1])
            elif len(item):
                firsts.add(item.first_activity)
                lasts.add(item.last_activity)
        out.clear()

    def push(self, line_number: int, raw_line: str) -> List[Execution]:
        out = super().push(line_number, raw_line)
        self._commit(out)
        return out

    def _emit(self, eid: str, items: list, out: List) -> None:
        # Report and quarantine accounting happen here, eagerly — the
        # per-line path also mutates them before its caller banks the
        # list.
        if self._fold_clean:
            sequence = _clean_sequence(items)
            if sequence is not None:
                report = self.report
                report.accepted_executions += 1
                report.accepted_records += len(items)
                out.append(sequence)
                return
        super()._emit(eid, items, out)
