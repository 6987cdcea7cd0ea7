"""Algorithm 1 (Special DAG) — Section 3 of the paper.

Assumes the process graph is acyclic and *every* activity appears exactly
once in each execution.  Under those assumptions the minimal conformal
graph is unique, and Algorithm 1 finds it:

1. collect every ordered pair ``(u, v)`` (``u`` terminates before ``v``
   starts) over all executions;
2. remove pairs present in both directions (2-cycles — such activities are
   independent);
3. transitively reduce the remaining DAG (Appendix Algorithm 4).

Complexity ``O(n²m)`` for ``n`` activities and ``m`` executions; the pair
collection dominates, exactly as in Theorem 4.  Like Algorithm 2, the
implementation extracts pairs once per distinct trace variant and runs
steps 2–3 and the reduction over interned packed pair codes.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.general_dag import prepare_executions
from repro.core.interning import InternTable
from repro.errors import CycleError, MiningError
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import transitive_reduction_packed
from repro.logs.event_log import EventLog
from repro.obs.recorder import NULL_RECORDER, Recorder


def mine_special_dag(
    log: EventLog,
    strict: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> DiGraph:
    """Mine the minimal conformal graph of ``log`` with Algorithm 1.

    Parameters
    ----------
    log:
        Executions of one process.  Algorithm 1's preconditions — every
        activity in every execution, acyclic process — are checked when
        ``strict`` is true.
    strict:
        When true (default), raise :class:`MiningError` if some execution
        misses an activity or repeats one, instead of returning a graph
        whose minimality guarantee is void.
    recorder:
        :mod:`repro.obs` sink for spans (``mine/prepare``,
        ``mine/step3_filters``, ``mine/step5_reduce``,
        ``mine/step6_assemble``) and the mining counters; the shared
        no-op recorder by default.

    Returns
    -------
    DiGraph
        The unique minimal conformal graph (Theorem 4).

    Examples
    --------
    Example 6 of the paper — log ``{ABCDE, ACDBE, ACBDE}``:

    >>> from repro.logs.event_log import EventLog
    >>> log = EventLog.from_sequences(["ABCDE", "ACDBE", "ACBDE"])
    >>> sorted(mine_special_dag(log).edges())
    [('A', 'B'), ('A', 'C'), ('B', 'E'), ('C', 'D'), ('D', 'E')]
    """
    log.require_non_empty()
    activities = log.activities()
    if strict:
        _check_preconditions(log, activities)

    # Step 2 — pair sets, extracted once per distinct trace variant.
    with recorder.span("mine/prepare"):
        prepared = prepare_executions(list(log), labelled=False)
        distinct = set(prepared)

        labels: set = set(activities)
        for variant in distinct:
            labels.update(variant.vertices)
            for u, v in variant.pairs:
                labels.add(u)
                labels.add(v)
        table = InternTable(labels)
        n = max(len(table), 1)

    with recorder.span("mine/step3_filters"):
        edges: Set[int] = set()
        independent: Set[int] = set()
        # Pack inline into the two mutable sets rather than through
        # ``pack_pairs``: one intermediate frozenset per variant (two
        # per overlap-bearing variant) never gets allocated.
        index = table.index
        for variant in distinct:
            edges.update(
                index[u] * n + index[v] for u, v in variant.pairs
            )
            for u, v in variant.overlaps:
                # Overlapping activities are independent (Section 2) —
                # equivalent to having seen the pair in both orders.
                u_id = index[u]
                v_id = index[v]
                independent.add(u_id * n + v_id)
                independent.add(v_id * n + u_id)
        pairs_extracted = len(edges)
        edges -= independent

        # Step 3 — drop 2-cycles.
        edges = {
            code
            for code in edges
            if (code % n) * n + (code // n) not in edges
        }

    with recorder.span("mine/step5_reduce"):
        try:
            kept = transitive_reduction_packed(frozenset(edges), n)
        except CycleError as exc:
            raise MiningError(
                "the followings graph is cyclic after removing 2-cycles; "
                "the log violates Algorithm 1's every-activity-every-"
                "execution assumption — use Algorithm 2 "
                "(mine_general_dag) instead"
            ) from exc

    with recorder.span("mine/step6_assemble"):
        graph = DiGraph(nodes=sorted(activities))
        table_labels = table.labels
        for code in kept:
            graph.add_edge(table_labels[code // n], table_labels[code % n])
    recorder.count("repro_mine_executions_total", len(log))
    recorder.count("repro_mine_variants_total", len(distinct))
    recorder.count("repro_mine_pairs_extracted_total", pairs_extracted)
    recorder.gauge(
        "repro_mine_edges", graph.edge_count, labels={"stage": "step6"}
    )
    return graph


def _check_preconditions(log: EventLog, activities: frozenset) -> None:
    problem: Optional[str] = None
    for execution in log:
        sequence = execution.sequence
        if len(set(sequence)) != len(sequence):
            problem = (
                f"execution {execution.execution_id!r} repeats an "
                f"activity; Algorithm 1 requires exactly one instance each"
            )
            break
        if set(sequence) != set(activities):
            missing = sorted(activities - set(sequence))
            problem = (
                f"execution {execution.execution_id!r} misses activities "
                f"{missing}; Algorithm 1 requires every activity in every "
                f"execution (use Algorithm 2 for optional activities)"
            )
            break
    if problem is not None:
        raise MiningError(problem)
