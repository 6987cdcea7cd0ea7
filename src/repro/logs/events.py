"""Event records.

Definition 2 of the paper: the log of one execution is a list of event
records ``(P, A, E, T, O)`` where ``P`` names the process execution, ``A``
the activity, ``E`` in ``{START, END}`` is the event type, ``T`` the time,
and ``O = o(A)`` the activity's output when ``E = END`` (a null vector
otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

START_EVENT = "START"
END_EVENT = "END"

_VALID_EVENT_TYPES = frozenset({START_EVENT, END_EVENT})


@dataclass(frozen=True, order=True)
class EventRecord:
    """One log record ``(P, A, E, T, O)``.

    Ordering is by timestamp first (then the remaining fields, making sort
    order total and deterministic), so a list of records sorts into event
    time order — which is how traces are reconstructed from interleaved
    process logs.

    Attributes
    ----------
    timestamp:
        Event time ``T``.  Declared first so dataclass ordering is
        time-major.
    execution_id:
        The process-execution name ``P``.
    activity:
        The activity name ``A``.
    event_type:
        ``"START"`` or ``"END"``.
    output:
        The activity output vector ``O`` for END events; ``None`` for
        START events (the paper's "null vector").
    """

    timestamp: float
    execution_id: str
    activity: str
    event_type: str
    output: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.event_type not in _VALID_EVENT_TYPES:
            raise ValueError(
                f"event type must be START or END, got {self.event_type!r}"
            )
        if not self.activity:
            raise ValueError("activity name must be non-empty")
        if not self.execution_id:
            raise ValueError("execution id must be non-empty")
        if self.event_type == START_EVENT and self.output is not None:
            raise ValueError("START events carry no output vector")

    @property
    def is_start(self) -> bool:
        """Whether this is a START event."""
        return self.event_type == START_EVENT

    @property
    def is_end(self) -> bool:
        """Whether this is an END event."""
        return self.event_type == END_EVENT

    def shifted(self, delta: float) -> "EventRecord":
        """Return a copy with the timestamp moved by ``delta``."""
        return EventRecord(
            timestamp=self.timestamp + delta,
            execution_id=self.execution_id,
            activity=self.activity,
            event_type=self.event_type,
            output=self.output,
        )


def start_event(
    execution_id: str, activity: str, timestamp: float
) -> EventRecord:
    """Construct a START record."""
    return EventRecord(
        timestamp=timestamp,
        execution_id=execution_id,
        activity=activity,
        event_type=START_EVENT,
    )


def end_event(
    execution_id: str,
    activity: str,
    timestamp: float,
    output: Optional[Tuple[float, ...]] = None,
) -> EventRecord:
    """Construct an END record."""
    return EventRecord(
        timestamp=timestamp,
        execution_id=execution_id,
        activity=activity,
        event_type=END_EVENT,
        output=output,
    )
