"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are split
along the package's major seams (graphs, process models, logs, the workflow
engine, and the miners) so that tests and downstream code can assert on the
precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for errors raised by :mod:`repro.graphs`."""


class NodeNotFoundError(GraphError, KeyError):
    """An operation referenced a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An operation referenced an edge that is not in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class DuplicateNodeError(GraphError, ValueError):
    """A node was added twice where duplicates are not permitted."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is already in the graph")
        self.node = node


class CycleError(GraphError, ValueError):
    """An algorithm that requires an acyclic graph was given a cyclic one.

    The offending cycle (a list of nodes, when available) is stored in
    :attr:`cycle`.
    """

    def __init__(self, message: str, cycle: list | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle if cycle is not None else []


class ModelError(ReproError):
    """Base class for errors raised by :mod:`repro.model`."""


class InvalidProcessError(ModelError, ValueError):
    """A process model failed structural validation.

    Carries the list of human-readable violation strings in
    :attr:`violations`.
    """

    def __init__(self, violations: list) -> None:
        summary = "; ".join(str(v) for v in violations) or "invalid process"
        super().__init__(summary)
        self.violations = list(violations)


class ConditionError(ModelError, ValueError):
    """An edge condition expression is malformed or cannot be evaluated."""


class LogError(ReproError):
    """Base class for errors raised by :mod:`repro.logs`."""


class LogFormatError(LogError, ValueError):
    """A serialized log line or file does not match the expected format.

    ``line_number`` is 1-based when the error arises from parsing a file.
    """

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MalformedExecutionError(LogError, ValueError):
    """An execution trace violates basic event-structure invariants.

    Raised, for example, when an END event has no matching START, or when a
    trace is empty where a non-empty one is required.
    """


class ResourceLimitError(LogError, RuntimeError):
    """Ingesting a log exceeded a configured resource guard.

    Raised *before* the offending record is admitted, so an adversarial or
    runaway log aborts early instead of exhausting memory.  ``limit`` names
    the guard (``"max_executions"``, ``"max_events_per_execution"``, or
    ``"max_activities"``) and ``bound`` its configured value.
    ``line_number`` (1-based, when known) locates the record that tripped
    the guard, so batch ingestion can restore exact line accounting.
    """

    def __init__(
        self,
        limit: str,
        bound: int,
        detail: str = "",
        line_number: int | None = None,
    ) -> None:
        message = f"resource limit {limit}={bound} exceeded"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.limit = limit
        self.bound = bound
        self.line_number = line_number


class EngineError(ReproError):
    """Base class for errors raised by :mod:`repro.engine`."""


class DeadlockError(EngineError, RuntimeError):
    """A simulated process execution stopped before reaching the sink."""

    def __init__(self, message: str, pending: list | None = None) -> None:
        super().__init__(message)
        self.pending = pending if pending is not None else []


class MiningError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class EmptyLogError(MiningError, ValueError):
    """A miner was given a log with no executions."""


class JournalError(ReproError):
    """A write-ahead journal segment is unreadable or corrupt beyond
    the tolerated torn tail (see :mod:`repro.resilience.journal`)."""


class CheckpointError(MiningError, ValueError):
    """An incremental-miner checkpoint file is missing, corrupt, or of an
    incompatible version."""


class NotConformalError(MiningError, AssertionError):
    """A conformance check failed.

    Carries the list of violation strings in :attr:`violations`.
    """

    def __init__(self, violations: list) -> None:
        summary = "; ".join(str(v) for v in violations) or "not conformal"
        super().__init__(summary)
        self.violations = list(violations)


class ClassifierError(ReproError):
    """Base class for errors raised by :mod:`repro.classifier`."""


class TrainingDataError(ClassifierError, ValueError):
    """The training data for a classifier is empty or inconsistent."""
