"""Seeded inputs and output checks for the benchmark's workloads.

Every log comes from :mod:`repro.datasets.synthetic` with a seed taken
from the command line, and is written before any timing starts.  The
expected results are computed here too, outside every timed region:

* for the CLI, the model of :mod:`repro.core.reference` (the naive
  pipeline the test suite holds every fast path to);
* for the daemon, ``F(i)`` -- how many executions a local
  ``IngestStream.push_batch`` replay of the same request bodies has
  finalized through batch ``i`` -- which turns each read's
  ``X-Snapshot-Seq`` into an ack-to-visible time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reference import mine_general_dag_reference
from repro.datasets.synthetic import SyntheticConfig, synthetic_dataset
from repro.logs.event_log import EventLog
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICY_SKIP,
    IngestReport,
    IngestStream,
)
from repro.logs.jsonl import parse_batch, record_from_json, record_to_json


@dataclass
class LogInput:
    """One generated log file and the facts recorded about it."""

    path: Path
    process: str
    lines: List[str]
    records: int
    executions: int
    variants: int
    vertices: int
    #: Executions per distinct variant (1.0: nothing repeats).
    dedup: float
    #: The reference model: activity count and edge set.
    activities: int
    edges: frozenset

    def facts(self) -> Dict[str, float]:
        """What is recorded about this input in every run's output."""
        return {
            "records": self.records,
            "executions": self.executions,
            "variants": self.variants,
            "vertices": self.vertices,
            "dedup": round(self.dedup, 3),
        }


def make_log(
    path: Path,
    vertices: int,
    pool: int,
    repeats: int = 1,
    seed: int = 0,
    max_records: Optional[int] = None,
    keep_lines: bool = False,
) -> LogInput:
    """Write ``pool`` synthetic executions, each repeated ``repeats`` times.

    Repeats reuse an execution's records under a fresh execution id
    (``<id>-r<k>``), one whole execution after another, so the log has
    ``pool * repeats`` executions but only the pool's variants.  With
    ``max_records`` the log stops after the first execution that
    reaches that many records.  The lines stay on the result only with
    ``keep_lines`` (they become request bodies).

    The reference model is mined from the distinct pool executions the
    log holds: with no noise threshold, Algorithm 2 depends only on
    which execution variants occur, not on how often.
    """
    dataset = synthetic_dataset(
        SyntheticConfig(n_vertices=vertices, n_executions=pool, seed=seed)
    )
    pool_log = list(dataset.log)
    process = dataset.log.process_name
    per_execution = [
        [record_to_json(record, process) + "\n"
         for record in execution.records]
        for execution in pool_log
    ]
    lines: List[str] = []
    used = set()
    executions = 0
    for repeat in range(repeats):
        for index, execution in enumerate(pool_log):
            if max_records is not None and len(lines) >= max_records:
                break
            block = per_execution[index]
            if repeats > 1:
                old = f'"execution": "{execution.execution_id}"'
                new = f'"execution": "{execution.execution_id}-r{repeat:04d}"'
                block = [line.replace(old, new) for line in block]
            lines.extend(block)
            used.add(index)
            executions += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    distinct = EventLog([pool_log[i] for i in sorted(used)], process)
    reference = mine_general_dag_reference(distinct)
    variants = len({tuple(execution.sequence) for execution in distinct})
    return LogInput(
        path=path,
        process=process,
        lines=lines if keep_lines else [],
        records=len(lines),
        executions=executions,
        variants=variants,
        vertices=len({a for execution in distinct for a in execution}),
        dedup=executions / variants,
        activities=reference.node_count,
        edges=frozenset(
            (str(source), str(target)) for source, target in reference.edges()
        ),
    )


def parse_edges_output(text: str) -> Tuple[Dict[str, str], frozenset]:
    """``mine --format edges`` stdout -> (header fields, edge set)."""
    header: Dict[str, str] = {}
    edges = set()
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif " -> " in line:
            source, _, target = line.partition(" -> ")
            edges.add((source.strip(), target.strip()))
    return header, frozenset(edges)


def check_cli_output(text: str, log: LogInput) -> List[str]:
    """Problems with one ``mine`` stdout against the reference model."""
    header, edges = parse_edges_output(text)
    problems = []
    if header.get("activities") != str(log.activities):
        problems.append(
            f"activities {header.get('activities')} != {log.activities}"
        )
    if edges != log.edges:
        problems.append(
            f"edge sets differ: {len(edges - log.edges)} extra, "
            f"{len(log.edges - edges)} missing"
        )
    return problems


def batches(lines: Sequence[str], size: int) -> List[List[str]]:
    """Consecutive request bodies of ``size`` lines (the last: the rest)."""
    return [list(lines[i:i + size]) for i in range(0, len(lines), size)]


def finalized_through(
    process: str,
    bodies: Sequence[Sequence[str]],
    window: int = DEFAULT_STREAM_WINDOW,
) -> List[int]:
    """``F(i)``: executions finalized once body ``i`` was ingested.

    Replays the bodies through the same ``IngestStream`` configuration
    a daemon tenant uses (``skip`` policy, default window, the JSONL
    batch scanner, the URL's process name), so ``F(i)`` is exactly the
    journal sequence the daemon reaches by folding batch ``i``.
    """
    report = IngestReport(policy=POLICY_SKIP)
    report.process_name = process
    stream = IngestStream(
        record_from_json,
        policy=POLICY_SKIP,
        report=report,
        window=window,
        parse_batch=parse_batch,
    )
    finalized = []
    total = 0
    start = 1
    for body in bodies:
        total += len(stream.push_batch(start, list(body)))
        start += len(body)
        finalized.append(total)
    return finalized


def check_flush(stats: dict, executions: int) -> List[str]:
    """Problems with the daemon's flush accounting for one phase.

    A tenant whose URL does not match the records' ``process`` field
    answers every POST with 202 and quarantines every line, so the
    counts are what tells a real fold from a fast no-op.
    """
    problems = []
    if stats.get("executions") != executions:
        problems.append(
            f"flush reports {stats.get('executions')} executions, "
            f"{executions} were sent"
        )
    if stats.get("quarantined_lines", 0) != 0:
        problems.append(
            f"{stats.get('quarantined_lines')} lines quarantined "
            f"({stats.get('quarantine_reasons')})"
        )
    if stats.get("errors"):
        problems.append(f"ingest errors: {stats['errors']}")
    return problems
