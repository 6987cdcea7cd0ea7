"""Retained naive reference implementation of the mining pipeline.

This module preserves, essentially verbatim, the original label-tuple
implementation of Algorithm 2's steps 2–6 that predated the interned
high-throughput core in :mod:`repro.core.general_dag`: generator-based
pair extraction per execution, label-tuple set algebra, and a fresh
:class:`~repro.graphs.digraph.DiGraph` plus dictionary-based transitive
reduction per execution in step 5.

It exists for two reasons:

* the differential test suite asserts that the fast interned/variant/
  bit-parallel paths produce graphs, traces and noise counters *identical*
  to this reference on arbitrary logs, and
* the performance harness (``benchmarks/perf_harness.py``) measures the
  fast core's speedup against it honestly — same satellites, old
  architecture.

Nothing in the production code path imports this module.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set

from repro.core.cyclic import merge_instances
from repro.core.followings import remove_two_cycles
from repro.core.general_dag import (
    MiningTrace,
    Pair,
    PreparedExecution,
    Vertex,
)
from repro.errors import EmptyLogError
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import remove_intra_component_edges
from repro.graphs.traversal import topological_sort
from repro.logs.event_log import EventLog


def prepare_log_reference(log: EventLog) -> List[PreparedExecution]:
    """Per-execution preparation, one generator pass per execution
    (no variant deduplication, no caching)."""
    return [
        PreparedExecution(
            vertices=frozenset(execution.activities),
            pairs=frozenset(execution.ordered_pairs()),
            overlaps=frozenset(execution.overlapping_pairs()),
        )
        for execution in log
    ]


def prepare_labelled_log_reference(
    log: EventLog,
) -> List[PreparedExecution]:
    """Relabelled (Algorithm 3) preparation, one pass per execution."""
    return [
        PreparedExecution(
            vertices=frozenset(execution.labelled_sequence()),
            pairs=frozenset(execution.labelled_ordered_pairs()),
            overlaps=frozenset(execution.labelled_overlapping_pairs()),
        )
        for execution in log
    ]


def _reduction_edges_reference(graph: DiGraph) -> Set[Pair]:
    """The original DiGraph-based Algorithm 4 transitive reduction."""
    index: Dict[Vertex, int] = {n: i for i, n in enumerate(graph.nodes())}
    desc: Dict[Vertex, int] = {}
    kept: Set[Pair] = set()
    for node in reversed(topological_sort(graph)):
        successors = graph.successors(node)
        through = 0
        for child in successors:
            through |= desc[child]
        mask = through
        for child in successors:
            bit = 1 << index[child]
            if not through & bit:
                kept.add((node, child))
            mask |= bit
        desc[node] = mask
    return kept


def mine_prepared_reference(
    prepared: Sequence[PreparedExecution],
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    skip_scc_removal: bool = False,
    skip_execution_marking: bool = False,
) -> DiGraph:
    """Steps 2–6 over label tuples, one induced DiGraph per execution."""
    if not prepared:
        raise EmptyLogError("cannot mine an empty set of executions")
    trace = trace if trace is not None else MiningTrace()

    # Step 2 — union of ordered pairs, with occurrence counters.
    counts: Counter = Counter()
    overlap_counts: Counter = Counter()
    vertices: Set[Vertex] = set()
    for execution in prepared:
        vertices |= execution.vertices
        counts.update(execution.pairs)
        overlap_counts.update(execution.overlaps)
    trace.pair_counts = counts
    trace.overlap_counts = overlap_counts
    edges: Set[Pair] = set(counts)
    trace.edges_after_step2 = len(edges)

    # Section 6 — drop infrequent pairs before the 2-cycle step.
    if threshold > 1:
        edges = {pair for pair in edges if counts[pair] >= threshold}
    trace.edges_dropped_by_threshold = trace.edges_after_step2 - len(edges)

    # Overlap evidence: concurrently observed activities are independent.
    min_evidence = max(1, threshold)
    independent = {
        pair
        for pair, count in overlap_counts.items()
        if count >= min_evidence
    }
    before_overlap = len(edges)
    if independent:
        edges = {
            (u, v)
            for u, v in edges
            if (u, v) not in independent and (v, u) not in independent
        }
    trace.edges_dropped_by_overlap = before_overlap - len(edges)

    # Step 3 — drop 2-cycles.
    edges = remove_two_cycles(edges)
    trace.edges_after_step3 = len(edges)

    graph = DiGraph(nodes=sorted(vertices, key=repr), edges=edges)

    # Step 4 — drop edges inside strongly connected components.
    if not skip_scc_removal:
        trace.scc_edge_removals = remove_intra_component_edges(graph)
    trace.edges_after_step4 = graph.edge_count

    # Steps 5–6 — keep only edges some execution's reduction needs.
    if not skip_execution_marking:
        marked: Set[Pair] = set()
        edge_set = graph.edge_set()
        for execution in prepared:
            induced_edges = execution.pairs & edge_set
            induced = DiGraph(
                nodes=execution.vertices, edges=induced_edges
            )
            marked |= _reduction_edges_reference(induced)
        graph = graph.edge_subgraph(marked)
    trace.edges_after_step6 = graph.edge_count
    return graph


def mine_general_dag_reference(
    log: EventLog,
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
) -> DiGraph:
    """Algorithm 2 through the naive pipeline."""
    log.require_non_empty()
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return mine_prepared_reference(
        prepare_log_reference(log), threshold=threshold, trace=trace
    )


def mine_cyclic_reference(
    log: EventLog,
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
) -> DiGraph:
    """Algorithm 3 through the naive pipeline."""
    log.require_non_empty()
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    instance_graph = mine_prepared_reference(
        prepare_labelled_log_reference(log),
        threshold=threshold,
        trace=trace,
    )
    return merge_instances(instance_graph)
