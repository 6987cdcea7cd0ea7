"""Algorithm 3 (Cyclic graphs) — Section 5 of the paper.

Cycles make repeated activity instances legitimate, so the DAG algorithms
would wrongly discard them as 2-cycles.  Algorithm 3 instead:

1. relabels the ``k``-th appearance of activity ``A`` in an execution as
   the distinct vertex ``(A, k)`` (the paper's ``A1, A2, ...``);
2. runs the Algorithm 2 pipeline (steps 2–7) on the relabelled log;
3. merges each activity's instance vertices back into one vertex, adding
   the edge ``(A, B)`` whenever some instance edge ``((A, i), (B, j))``
   survived — instance pairs of the same activity never produce
   self-loops, but ``B -> C`` and ``C -> B`` instance edges reconstruct the
   cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.core.general_dag import (
    MiningTrace,
    PreparedExecution,
    _keyed,
    _mine_packed,
    prepare_executions,
    prepare_packed_log,
)
from repro.graphs.digraph import DiGraph
from repro.logs.event_log import EventLog

Instance = Tuple[str, int]


def prepare_labelled_log(log: EventLog) -> List[PreparedExecution]:
    """Relabel executions (step 2 of Algorithm 3) into prepared views.

    Vertices become ``(activity, occurrence)`` pairs; ordered pairs between
    distinct instances of the *same* activity are kept — Algorithm 3 treats
    them as ordinary vertices (their edges either survive as the loop's
    backbone or are pruned like any other edge).  Identical trace
    variants are prepared once.
    """
    return prepare_executions(list(log), labelled=True)


def merge_instances(instance_graph: DiGraph) -> DiGraph:
    """Step 8: merge instance vertices back to activities.

    An edge ``(A, B)`` with ``A != B`` appears in the merged graph iff some
    edge joins an instance of ``A`` to an instance of ``B``.
    """
    merged = DiGraph(
        nodes=sorted({activity for activity, _ in instance_graph.nodes()})
    )
    for (src_activity, _), (dst_activity, _) in instance_graph.edges():
        if src_activity != dst_activity:
            merged.add_edge(src_activity, dst_activity)
    return merged


def mine_cyclic(
    log: EventLog,
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    return_instance_graph: bool = False,
) -> Union[DiGraph, Tuple[DiGraph, DiGraph]]:
    """Mine a (possibly cyclic) conformal graph of ``log`` with Algorithm 3.

    Parameters
    ----------
    log:
        Executions of one process; activities may repeat within an
        execution.
    threshold:
        Section 6 noise threshold applied to the relabelled pair counts.
    trace:
        Optional :class:`MiningTrace` diagnostics sink.
    return_instance_graph:
        When true, return ``(merged_graph, instance_graph)`` — the
        intermediate graph over ``(activity, occurrence)`` vertices is what
        the paper's Figure 6 (left) shows.

    Returns
    -------
    DiGraph or (DiGraph, DiGraph)
        The merged activity graph, optionally with the instance graph.

    Examples
    --------
    Example 8 of the paper — log ``{ABDCE, ABDCBCE, ABCBDCE, ADE}`` mines
    to a graph with the B/C cycle:

    >>> from repro.logs.event_log import EventLog
    >>> log = EventLog.from_sequences(["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"])
    >>> graph = mine_cyclic(log)
    >>> graph.has_edge("B", "C") and graph.has_edge("C", "B")
    True
    """
    log.require_non_empty()
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    trace = trace if trace is not None else MiningTrace()
    with trace.stage("prepare"):
        table, variants = prepare_packed_log(
            list(log), labelled=True, recorder=trace.recorder
        )
    instance_graph = _mine_packed(
        table.labels,
        len(table),
        _keyed(variants),
        threshold=threshold,
        trace=trace,
    )
    with trace.stage("merge_instances"):
        merged = merge_instances(instance_graph)
    if return_instance_graph:
        return merged, instance_graph
    return merged


def max_instance_counts(log: EventLog) -> dict:
    """Per activity, the maximum occurrences in any one execution.

    The paper notes the instance-vertex set size equals this maximum (the
    ``k`` of Theorem 6's ``O(m(kn)^3)`` bound).
    """
    maxima: dict = {}
    for execution in log:
        counts: dict = {}
        for activity in execution.sequence:
            counts[activity] = counts.get(activity, 0) + 1
        for activity, count in counts.items():
            if count > maxima.get(activity, 0):
                maxima[activity] = count
    return maxima
