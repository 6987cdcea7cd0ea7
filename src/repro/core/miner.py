"""The :class:`ProcessMiner` facade — the library's front door.

Dispatches between Algorithms 1, 2 and 3 (explicitly or by inspecting the
log), applies the Section 6 noise threshold, optionally learns edge
conditions (Section 7), and packages everything as a
:class:`MiningResult` with the mined graph, a reconstructed
:class:`~repro.model.process.ProcessModel`, and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.cyclic import mine_cyclic
from repro.core.general_dag import MiningTrace, mine_general_dag
from repro.core.special_dag import mine_special_dag
from repro.errors import MiningError
from repro.graphs.digraph import DiGraph
from repro.logs.event_log import EventLog
from repro.model.activity import Activity
from repro.model.process import ProcessModel
from repro.obs.recorder import Recorder, resolve_recorder

if TYPE_CHECKING:
    from repro.core.conditions import ConditionsMiner, MinedCondition

#: Algorithm selector values.
ALGORITHM_SPECIAL = "special-dag"    # Algorithm 1
ALGORITHM_GENERAL = "general-dag"    # Algorithm 2
ALGORITHM_CYCLIC = "cyclic"          # Algorithm 3
ALGORITHM_AUTO = "auto"

_ALGORITHMS = (
    ALGORITHM_SPECIAL,
    ALGORITHM_GENERAL,
    ALGORITHM_CYCLIC,
    ALGORITHM_AUTO,
)


@dataclass
class MiningResult:
    """Everything one mining run produced.

    Attributes
    ----------
    graph:
        The mined control-flow graph.
    algorithm:
        Which algorithm actually ran (after ``auto`` resolution).
    trace:
        Stage diagnostics (empty for Algorithm 1, which has no optional
        stages).
    conditions:
        Per-edge learned conditions when conditions mining was requested.
    source, sink:
        The initiating/terminating activities observed in the log.
    """

    graph: DiGraph
    algorithm: str
    trace: MiningTrace = field(default_factory=MiningTrace)
    conditions: Dict[Tuple[str, str], MinedCondition] = field(
        default_factory=dict
    )
    source: Optional[str] = None
    sink: Optional[str] = None

    def to_process_model(self, name: str = "mined") -> ProcessModel:
        """Package the mined graph (and conditions) as a process model.

        Requires the graph to have a unique source and sink — true for
        graphs mined from well-formed logs.
        """
        conditions = {
            edge: mined.condition
            for edge, mined in self.conditions.items()
            if self.graph.has_edge(*edge)
        }
        return ProcessModel(
            name,
            activities=[Activity(a) for a in sorted(self.graph.nodes())],
            edges=list(self.graph.edges()),
            conditions=conditions,
            source=self.source,
            sink=self.sink,
        )


class ProcessMiner:
    """High-level miner: log in, process graph (and conditions) out.

    Parameters
    ----------
    algorithm:
        ``"special-dag"`` (Algorithm 1), ``"general-dag"`` (Algorithm 2),
        ``"cyclic"`` (Algorithm 3) or ``"auto"`` (default).  ``auto``
        picks Algorithm 3 when some execution repeats an activity,
        Algorithm 1 when every execution contains every activity exactly
        once, and Algorithm 2 otherwise.
    threshold:
        Section 6 noise threshold ``T``; 0 disables noise handling.
        (Algorithm 1 has no thresholded variant in the paper; requesting
        a threshold with ``special-dag`` is an error.)
    learn_conditions:
        Whether to run Section 7's conditions mining on the result.
    conditions_miner:
        Custom conditions learner (defaults to a fresh
        :class:`ConditionsMiner`, built when first needed so a miner
        that learns no conditions never loads the classifier).
    recorder:
        :mod:`repro.obs` recorder threaded through every stage (spans
        and the stable metric catalogue of ``docs/OBSERVABILITY.md``).
        ``None`` (the default) uses the shared no-op recorder, whose
        cost is unmeasurable.

    Examples
    --------
    >>> from repro.logs.event_log import EventLog
    >>> log = EventLog.from_sequences(["ABCE", "ACBE", "ABCE"])
    >>> result = ProcessMiner().mine(log)
    >>> result.algorithm
    'special-dag'
    >>> sorted(result.graph.edges())
    [('A', 'B'), ('A', 'C'), ('B', 'E'), ('C', 'E')]
    """

    def __init__(
        self,
        algorithm: str = ALGORITHM_AUTO,
        threshold: int = 0,
        learn_conditions: bool = False,
        conditions_miner: Optional[ConditionsMiner] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if algorithm not in _ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
            )
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.algorithm = algorithm
        self.threshold = threshold
        self.learn_conditions = learn_conditions
        self._conditions_miner = conditions_miner
        self.recorder: Recorder = resolve_recorder(recorder)

    @property
    def conditions_miner(self) -> ConditionsMiner:
        """The Section 7 conditions learner."""
        if self._conditions_miner is None:
            from repro.core.conditions import ConditionsMiner

            self._conditions_miner = ConditionsMiner()
        return self._conditions_miner

    def mine(self, log: EventLog) -> MiningResult:
        """Mine ``log`` into a :class:`MiningResult`."""
        log.require_non_empty()
        algorithm = self._resolve_algorithm(log)
        recorder = self.recorder
        trace = MiningTrace(recorder=recorder)

        with recorder.span("mine", algorithm=algorithm):
            if algorithm == ALGORITHM_SPECIAL:
                if self.threshold > 1:
                    raise MiningError(
                        "the noise threshold applies to Algorithms 2 and "
                        "3; use algorithm='general-dag' for noisy logs"
                    )
                graph = mine_special_dag(log, recorder=recorder)
            elif algorithm == ALGORITHM_GENERAL:
                graph = mine_general_dag(
                    log,
                    threshold=self.threshold,
                    trace=trace,
                )
            else:
                graph = mine_cyclic(
                    log,
                    threshold=self.threshold,
                    trace=trace,
                )

        source, sink = _endpoints(log)
        result = MiningResult(
            graph=graph,
            algorithm=algorithm,
            trace=trace,
            source=source,
            sink=sink,
        )
        if self.learn_conditions:
            with recorder.span("conditions"):
                result.conditions = self.conditions_miner.mine(
                    log, graph, recorder=recorder
                )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_algorithm(self, log: EventLog) -> str:
        if self.algorithm != ALGORITHM_AUTO:
            return self.algorithm
        activities = log.activities()
        has_repetition = False
        all_complete = True
        for execution in log:
            sequence = execution.sequence
            distinct = set(sequence)
            if len(distinct) != len(sequence):
                has_repetition = True
                break
            if distinct != activities:
                all_complete = False
        if has_repetition:
            return ALGORITHM_CYCLIC
        if all_complete:
            return ALGORITHM_SPECIAL
        return ALGORITHM_GENERAL


def _endpoints(log: EventLog) -> Tuple[Optional[str], Optional[str]]:
    """The initiating/terminating activities, when the log agrees on them."""
    firsts = {execution.first_activity for execution in log if len(execution)}
    lasts = {execution.last_activity for execution in log if len(execution)}
    source = firsts.pop() if len(firsts) == 1 else None
    sink = lasts.pop() if len(lasts) == 1 else None
    return source, sink
