"""Edge-coverage analysis: how thoroughly a log exercises a model.

Before trusting a mined or evolved model — and before pruning
"unobserved" edges — a workflow owner needs to know how well the log
covers the model: which edges were *required* by some execution, which
were merely compatible, and which never mattered.  This module computes
that per-edge usage from the step-5 marking machinery (an edge is *used*
by an execution when it appears in the execution's induced-subgraph
transitive reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CycleError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.transitive import transitive_reduction_packed
from repro.graphs.traversal import topological_sort
from repro.logs.event_log import EventLog

Edge = Tuple[str, str]


@dataclass(frozen=True)
class EdgeUsage:
    """Usage of one model edge across a log.

    Attributes
    ----------
    required:
        Executions whose induced transitive reduction needed the edge.
    compatible:
        Executions ordering the edge's endpoints accordingly (superset
        of ``required``).
    co_present:
        Executions containing both endpoints.
    """

    required: int
    compatible: int
    co_present: int

    @property
    def is_exercised(self) -> bool:
        """Whether at least one execution required this edge."""
        return self.required > 0


@dataclass(frozen=True)
class CoverageReport:
    """Per-edge usage plus aggregate coverage of a model by a log.

    Attributes
    ----------
    usage:
        Per-edge :class:`EdgeUsage`.
    executions:
        Number of executions analysed.
    """

    usage: Dict[Edge, EdgeUsage]
    executions: int

    @property
    def exercised_edges(self) -> int:
        """Number of model edges required by at least one execution."""
        return sum(1 for u in self.usage.values() if u.is_exercised)

    @property
    def coverage(self) -> float:
        """Fraction of model edges exercised (1.0 for an edgeless model)."""
        if not self.usage:
            return 1.0
        return self.exercised_edges / len(self.usage)

    def unexercised(self) -> list:
        """Model edges no execution required, sorted."""
        return sorted(
            edge for edge, u in self.usage.items() if not u.is_exercised
        )

    def report(self) -> str:
        """Render a per-edge coverage table."""
        lines = [
            f"edge coverage: {self.exercised_edges}/{len(self.usage)} "
            f"({self.coverage:.0%}) over {self.executions} executions",
        ]
        width = max(
            (len(f"{a} -> {b}") for a, b in self.usage), default=10
        )
        for edge in sorted(self.usage):
            u = self.usage[edge]
            label = f"{edge[0]} -> {edge[1]}"
            lines.append(
                f"  {label:<{width}}  required={u.required:<5} "
                f"compatible={u.compatible:<5} "
                f"co-present={u.co_present}"
            )
        return "\n".join(lines)


def edge_coverage(graph: DiGraph, log: EventLog) -> CoverageReport:
    """Compute how ``log`` exercises the edges of ``graph``.

    ``graph`` may be a purported model's graph or a mined graph; edges
    between activities the log never performs report zero everywhere.

    Each execution visits only the model edges leaving its activities
    and reduces the ones it orders (Algorithm 4) under the model's one
    topological rank.  A cyclic model has none: each reduction then
    checks its own edges and raises :class:`~repro.errors.CycleError`
    when an execution orders a cycle.
    """
    log.require_non_empty()
    nodes = list(graph.nodes())
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # Model edges leaving each activity, as (target, packed code).
    out: Dict[Node, List[Tuple[Node, int]]] = {}
    for source, target in graph.edges():
        code = index[source] * n + index[target]
        out.setdefault(source, []).append((target, code))
    try:
        rank: Optional[Dict[int, int]] = {
            index[node]: position
            for position, node in enumerate(topological_sort(graph))
        }
    except CycleError:
        rank = None
    codes = [code for targets in out.values() for _, code in targets]
    required = dict.fromkeys(codes, 0)
    compatible = dict.fromkeys(codes, 0)
    co_present = dict.fromkeys(codes, 0)

    for execution in log:
        activities = execution.activities
        # Throwaway on purpose: the cached ordered_pair_set() would keep
        # every execution's pairs alive for the rest of the run.
        pairs = set(execution.ordered_pairs())
        induced: List[int] = []
        for source in activities:
            for target, code in out.get(source, ()):
                if target in activities:
                    co_present[code] += 1
                    if (source, target) in pairs:
                        compatible[code] += 1
                        induced.append(code)
        for code in transitive_reduction_packed(induced, n, rank):
            required[code] += 1

    usage = {
        (source, target): EdgeUsage(
            required=required[code],
            compatible=compatible[code],
            co_present=co_present[code],
        )
        for source, targets in out.items()
        for target, code in targets
    }
    return CoverageReport(usage=usage, executions=len(log))
