"""The multi-tenant registry: one durable mining session per process.

A *tenant* is everything the daemon holds for one process id: a
:class:`~repro.logs.ingest.IngestStream` (the same policy/window
machinery the CLI streams through), a
:class:`~repro.resilience.session.DurableSession` (journal-before-fold,
``checkpoint_every`` rotation) and a :class:`ModelSnapshot` of the
mined model.  Snapshots are *read-through*: a read refreshes the
snapshot when folds went by since it was taken, so it covers every
execution folded before the read, and a tenant nobody reads pays
nothing for snapshots.  The incremental
:meth:`~repro.core.state.MiningState.finish` makes such a refresh cost
the variants folded since the last one, not the whole log.

Everything in this module is synchronous and loop-agnostic — the
asyncio layer in :mod:`repro.service.server` wraps tenants in queues
and worker tasks; tests drive them directly.

On disk, each tenant owns ``data_dir/<quoted-process-id>/`` (percent-
encoded so any process name maps to a safe directory name) with the
standard durable-session layout plus a ``dead-letter.jsonl`` quarantine
file.  A restarted daemon re-opens every tenant directory it finds and
recovers each session, so models survive restarts byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote, unquote

from repro.core.cyclic import merge_instances
from repro.core.miner import (
    ALGORITHM_AUTO,
    ALGORITHM_CYCLIC,
    ALGORITHM_GENERAL,
    MiningResult,
)
from repro.core.state import state_envelope
from repro.errors import ReproError
from repro.graphs.digraph import DiGraph
from repro.lint import LintConfig, LintReport, lint_model
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICY_SKIP,
    IngestLimits,
    IngestReport,
    IngestStream,
    Quarantine,
)
from repro.errors import LogFormatError, ResourceLimitError
from repro.logs.execution import Execution
from repro.logs.jsonl import parse_batch, record_from_json
from repro.obs import NULL_RECORDER
from repro.resilience.session import (
    DEFAULT_CHECKPOINT_EVERY,
    DurableSession,
    HandoffReceipt,
    RecoveryReport,
)

#: Algorithms a tenant may be configured with.  ``special-dag`` needs
#: the materialized log (Algorithm 1's precondition), so — exactly like
#: ``mine --stream`` — a long-lived service cannot run it.
TENANT_ALGORITHMS = (ALGORITHM_AUTO, ALGORITHM_GENERAL, ALGORITHM_CYCLIC)

#: The per-tenant dead-letter file inside the tenant directory.
DEAD_LETTER_NAME = "dead-letter.jsonl"

_PROCESS_ID_LIMIT = 200


class ServiceError(ReproError):
    """A request-level service failure carrying its HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class TenantConfig:
    """Mining/ingest knobs shared by every tenant of one daemon."""

    policy: str = POLICY_SKIP
    algorithm: str = ALGORITHM_AUTO
    threshold: int = 0
    window: int = DEFAULT_STREAM_WINDOW
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    limits: IngestLimits = field(default_factory=IngestLimits)

    def __post_init__(self) -> None:
        if self.algorithm not in TENANT_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {TENANT_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )

    @property
    def labelled(self) -> bool:
        """Whether tenants fold the labelled (cycle-aware) view."""
        return self.algorithm != ALGORITHM_GENERAL


@dataclass
class ModelSnapshot:
    """One finalized view of a tenant's model.

    ``seq`` is the journal sequence (== folded executions) the snapshot
    covers.  ``envelope`` is the canonical v3 state envelope for the
    *resolved* state — the same bytes ``mine --stream --state-out``
    writes for this log, which is what makes ``GET /v1/{p}/state``
    byte-comparable to the CLI.  Only that endpoint needs it, so it is
    rendered on the first state read at ``seq`` (see
    :meth:`Tenant.state_snapshot`) and ``None`` until then.
    """

    seq: int
    algorithm: str
    graph: DiGraph
    executions: int
    variants: int
    source: Optional[str]
    sink: Optional[str]
    envelope: Optional[str] = None


class Tenant:
    """One process id's live ingest + durable mining session."""

    def __init__(
        self,
        process: str,
        directory: Path,
        config: TenantConfig,
        recorder=NULL_RECORDER,
    ) -> None:
        self.process = process
        self.directory = Path(directory)
        self.config = config
        self.recorder = recorder
        self.session = DurableSession(
            self.directory,
            labelled=config.labelled,
            threshold=config.threshold,
            checkpoint_every=config.checkpoint_every,
            recorder=recorder,
        )
        self.quarantine = Quarantine(self.directory / DEAD_LETTER_NAME)
        self.report = IngestReport(policy=config.policy)
        # The URL names the process: the first record does not get to
        # claim the name, and records for other processes quarantine as
        # mixed-process lines (or raise, under strict).
        self.report.process_name = process
        self.stream = IngestStream(
            record_from_json,
            policy=config.policy,
            limits=config.limits,
            quarantine=self.quarantine,
            report=self.report,
            window=config.window,
            parse_batch=parse_batch,
        )
        self._line_number = 0
        self._firsts: set = set()
        self._lasts: set = set()
        self._snapshot: Optional[ModelSnapshot] = None
        self.closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Recover the durable session (call once, right after init)."""
        return self.session.recover()

    def close(self) -> HandoffReceipt:
        """Graceful shutdown: flush open windows, checkpoint, hand off.

        Open execution windows are finalized and folded first — the
        same convergence a flush performs — so the final checkpoint
        covers every record the daemon accepted, and a successor
        daemon's :meth:`recover` resumes the exact same state.
        """
        self.fold(self.stream.flush())
        receipt = self.session.handoff()
        self.quarantine.close()
        self.closed = True
        return receipt

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, lines: List[str]) -> int:
        """Push raw JSONL event lines; fold whatever finalizes.

        Returns the number of executions folded.  Under ``strict`` a
        bad line raises (the caller reports it); under ``skip`` /
        ``repair`` problems are quarantined into the tenant's
        dead-letter file and counted on :attr:`report`.

        The batch goes through :meth:`IngestStream.push_batch` in one
        call, so decode and window bookkeeping amortize per request
        instead of per line.  A strict-policy error mid-batch leaves
        the tenant exactly where per-line pushing would have: the
        executions finalized before the bad line are folded, the line
        counter rests on the offending line, and nothing after it was
        consumed.
        """
        if not lines:
            return 0
        start = self._line_number + 1
        out: List[Execution] = []
        try:
            self.stream.push_batch(start, lines, out=out)
        except (LogFormatError, ResourceLimitError) as exc:
            line_number = getattr(exc, "line_number", None)
            self._line_number = (
                line_number
                if line_number is not None
                else start + len(lines) - 1
            )
            self.fold(out)
            raise
        self._line_number = start + len(lines) - 1
        self.recorder.observe(
            "repro_ingest_batch_records",
            float(len(lines)),
            labels={"source": "service"},
        )
        return self.fold(out)

    def fold(self, executions) -> int:
        """Fold finalized executions into the durable session."""
        for execution in executions:
            if len(execution):
                self._firsts.add(execution.first_activity)
                self._lasts.add(execution.last_activity)
            self.session.fold(execution)
        return len(executions)

    def flush(self) -> int:
        """Finalize every open execution window and refresh the model."""
        folded = self.fold(self.stream.flush())
        self.snapshot()
        return folded

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether folds went by since the snapshot was taken."""
        covered = self.session.covered_seq
        if not covered:
            return False
        return self._snapshot is None or self._snapshot.seq != covered

    def refresh_snapshot(self) -> Optional[ModelSnapshot]:
        """Finalize the current state into a fresh :class:`ModelSnapshot`.

        Resolution mirrors ``mine --stream`` exactly: ``auto`` folds the
        labelled view and picks ``cyclic`` when repetition was observed,
        otherwise ``general-dag`` — so the snapshot's graph matches the
        batch CLI's output for the same records.  Either way the state
        that was folded is the one finished, so its incremental
        :meth:`~repro.core.state.MiningState.finish` carries over from
        one refresh to the next; a repetition-free labelled graph is
        projected onto activities afterwards.
        """
        started = perf_counter()
        state = self.session.state
        if state.execution_count == 0:
            self._snapshot = None
            return None
        labelled = self.session.labelled
        if self.config.algorithm == ALGORITHM_CYCLIC or (
            labelled and state.has_repetition()
        ):
            algorithm = ALGORITHM_CYCLIC
        else:
            algorithm = ALGORITHM_GENERAL
        graph = state.finish(threshold=self.config.threshold)
        if algorithm == ALGORITHM_CYCLIC:
            graph = merge_instances(graph)
        elif labelled:
            graph = _activity_view(graph)
        source = (
            next(iter(self._firsts)) if len(self._firsts) == 1 else None
        )
        sink = next(iter(self._lasts)) if len(self._lasts) == 1 else None
        self._snapshot = ModelSnapshot(
            seq=self.session.covered_seq,
            algorithm=algorithm,
            graph=graph,
            executions=state.execution_count,
            variants=state.variant_count,
            source=source,
            sink=sink,
        )
        self.recorder.count("repro_service_snapshots_total")
        self.recorder.observe(
            "repro_service_snapshot_seconds", perf_counter() - started
        )
        return self._snapshot

    def snapshot(self) -> Optional[ModelSnapshot]:
        """The model as of every fold so far (refreshed if stale)."""
        if self.stale:
            self.refresh_snapshot()
        return self._snapshot

    def state_snapshot(self) -> Optional[ModelSnapshot]:
        """:meth:`snapshot`, with its state envelope rendered.

        The envelope is rendered from the live state, which is at
        ``snapshot.seq`` right after :meth:`snapshot` (callers hold the
        tenant lock), and cached on the snapshot for later state reads.
        ``auto`` resolved to general-dag serializes the plain view, as
        ``mine --stream --state-out`` does.
        """
        snapshot = self.snapshot()
        if snapshot is None or snapshot.envelope is not None:
            return snapshot
        state = self.session.state
        if snapshot.algorithm == ALGORITHM_GENERAL and state.labelled:
            state = state.to_plain()
        snapshot.envelope = state_envelope(
            state, threshold=self.config.threshold
        )
        return snapshot

    # ------------------------------------------------------------------
    # Lint
    # ------------------------------------------------------------------
    def lint(self, config: LintConfig) -> LintReport:
        """Lint the snapshot's model (the PM1xx/PM2xx structural rules).

        The log is never materialized server-side (same restriction as
        ``mine --stream``'s built-in verification), so the PM3xx
        log-vs-model rules don't run here.
        """
        snapshot = self.snapshot()
        if snapshot is None:
            raise ServiceError(
                f"process {self.process!r} has no model yet", status=404
            )
        graph = snapshot.graph
        source = snapshot.source
        sink = snapshot.sink
        # After a restart the observed first/last sets are gone; the
        # graph's unique endpoints are the same information when they
        # are unambiguous.
        if source is None and len(graph.sources()) == 1:
            source = graph.sources()[0]
        if sink is None and len(graph.sinks()) == 1:
            sink = graph.sinks()[0]
        result = MiningResult(
            graph=graph,
            algorithm=snapshot.algorithm,
            source=source,
            sink=sink,
        )
        try:
            model = result.to_process_model(name=self.process)
        except ReproError as exc:
            raise ServiceError(
                f"model cannot be packaged for lint: {exc}", status=409
            ) from exc
        return lint_model(model, config=config, recorder=self.recorder)

    def stats(self) -> dict:
        """The accounting document ``flush`` and ``tenants`` expose."""
        report = self.report
        return {
            "process": self.process,
            "executions": self.session.covered_seq,
            "open_executions": self.stream.open_executions,
            "accepted_records": report.accepted_records,
            "repaired_executions": report.repaired_executions,
            "quarantined_lines": report.quarantined_lines,
            "quarantined_executions": report.quarantined_executions,
            "quarantine_reasons": dict(report.reasons),
            "snapshot_seq": (
                self._snapshot.seq if self._snapshot else None
            ),
        }


def _activity_view(instance_graph: DiGraph) -> DiGraph:
    """Project a repetition-free instance graph onto its activities.

    Every vertex is ``(activity, 1)``, and ``repr`` orders those tuples
    as it orders the bare names, so inserting in the instance graph's
    order rebuilds exactly the graph a plain finish of the same log
    returns, node and edge order included.
    """
    nodes = list(instance_graph.nodes())
    position = {node: index for index, node in enumerate(nodes)}
    by_source = []
    for node in nodes:
        targets = instance_graph.successors(node)
        if targets:
            by_source.append(
                (
                    node[0],
                    [
                        target[0]
                        for target in sorted(
                            targets, key=position.__getitem__
                        )
                    ],
                )
            )
    return DiGraph.from_grouped_edges(
        [activity for activity, _ in nodes], by_source
    )


def tenant_directory_name(process: str) -> str:
    """The filesystem-safe (percent-encoded) tenant directory name."""
    return quote(process, safe="")


class TenantRegistry:
    """Every live tenant, keyed by process id, rooted at ``data_dir``."""

    def __init__(
        self,
        data_dir: Path,
        config: TenantConfig,
        recorder=NULL_RECORDER,
        max_tenants: int = 1024,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.recorder = recorder
        self.max_tenants = max_tenants
        self._tenants: Dict[str, Tenant] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def processes(self) -> List[str]:
        """Live process ids, sorted."""
        return sorted(self._tenants)

    def get(self, process: str) -> Optional[Tenant]:
        """The live tenant for ``process``, or None."""
        return self._tenants.get(process)

    def tenants(self) -> List[Tenant]:
        """Every live tenant, in sorted process order."""
        return [self._tenants[name] for name in self.processes()]

    def validate_process_id(self, process: str) -> str:
        """Reject ids that cannot name a tenant; return the id."""
        if not process:
            raise ServiceError("process id must not be empty")
        if len(process) > _PROCESS_ID_LIMIT:
            raise ServiceError(
                f"process id longer than {_PROCESS_ID_LIMIT} characters"
            )
        if any(ord(ch) < 0x20 or ch == "\x7f" for ch in process):
            raise ServiceError(
                "process id must not contain control characters"
            )
        return process

    def get_or_create(
        self, process: str
    ) -> Tuple[Tenant, Optional[RecoveryReport]]:
        """Return the live tenant, creating (and recovering) if new.

        A new tenant whose directory already holds a previous daemon's
        session resumes it — ``recover`` loads the checkpoint and
        replays the journal tail, which is how a restarted daemon picks
        every process up byte-identically.
        """
        self.validate_process_id(process)
        tenant = self._tenants.get(process)
        if tenant is not None:
            return tenant, None
        if len(self._tenants) >= self.max_tenants:
            raise ServiceError(
                f"tenant limit reached ({self.max_tenants}); "
                f"cannot admit process {process!r}",
                status=429,
            )
        tenant = Tenant(
            process,
            self.data_dir / tenant_directory_name(process),
            self.config,
            recorder=self.recorder,
        )
        recovery = tenant.recover()
        self._tenants[process] = tenant
        self.recorder.gauge("repro_service_tenants", len(self._tenants))
        return tenant, recovery

    def startup(self) -> List[Tuple[str, RecoveryReport]]:
        """Re-open every tenant directory found under ``data_dir``.

        Called once when the daemon boots so a restart serves every
        previously known process immediately, without waiting for its
        first request.
        """
        recovered: List[Tuple[str, RecoveryReport]] = []
        for entry in sorted(self.data_dir.iterdir()):
            if not entry.is_dir():
                continue
            process = unquote(entry.name)
            if process in self._tenants:
                continue
            tenant = Tenant(
                process, entry, self.config, recorder=self.recorder
            )
            recovered.append((process, tenant.recover()))
            self._tenants[process] = tenant
        self.recorder.gauge("repro_service_tenants", len(self._tenants))
        return recovered

    def close_all(self) -> Dict[str, HandoffReceipt]:
        """Shut every tenant down cleanly; return their receipts."""
        receipts: Dict[str, HandoffReceipt] = {}
        for process in self.processes():
            tenant = self._tenants.pop(process)
            receipts[process] = tenant.close()
        self.recorder.gauge("repro_service_tenants", len(self._tenants))
        return receipts
