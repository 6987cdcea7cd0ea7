"""Algorithm 2 (General DAG) — Section 4 of the paper.

Drops Algorithm 1's every-activity-every-execution assumption: activities
may be optional, so a dependency graph alone need not admit every logged
execution (Example 5).  Algorithm 2 therefore:

1. collects ordered pairs per execution (step 2);
2. removes 2-cycles (step 3);
3. removes all edges inside strongly connected components of the followings
   graph (step 4) — mutual followings through longer cycles also signal
   independence;
4. for each execution, transitively reduces the *induced* subgraph (the
   current edges activated in that execution's order) and marks the
   surviving edges (step 5);
5. keeps only marked edges (step 6) — each kept edge is needed by at least
   one execution, which preserves execution completeness while heuristically
   minimizing edges.

The optional ``threshold`` implements Section 6's noise handling: ordered
pairs seen in fewer than ``T`` executions are discarded before step 3.

High-throughput core
--------------------
Real logs are dominated by repeated trace variants, so the pipeline here
is built around four ideas (the naive original is retained verbatim in
:mod:`repro.core.reference` for differential testing):

* **Interning** — vertex labels become dense integer ids and ordered
  pairs become single packed ints ``u * n + v``
  (:mod:`repro.core.interning`), so every set operation of steps 2–6
  runs over small ints.
* **Variant deduplication** — identical :class:`PreparedExecution`\\ s
  collapse into one weighted variant; step-2 counters use
  multiplicities and step 5 runs once per variant, with a further memo
  on the *induced edge set* shared across variants.
* **Bit-parallel step 5** (:mod:`repro.core.kernels`) — sequential
  no-repeat traces (the dominant shape) take a fused bit-row pipeline:
  step 2 builds per-source successor bitmasks directly from the id
  sequences (no pair-set materialization), steps 3–4 are bitmask
  algebra, and step 5 reduces *all* such variants in one slotted
  bit-parallel Algorithm 4 pass instead of one graph walk per variant.
  Every other variant takes the scalar reducer.

Everything runs serially in one process: worker pools and alternative
kernels were measured slower on every input (``docs/PERFORMANCE.md``).

:func:`mine_prepared` exposes the step 2–6 pipeline over pre-extracted
pair sets so that Algorithm 3 can reuse it on relabelled executions;
:func:`mine_variants` is the variant-weighted core shared with the
incremental miner.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from time import perf_counter
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.interning import InternTable, PackedVariant, intern_variants
from repro.core.kernels import (
    KernelState,
    ReduceContext,
    ReduceStats,
    reduce_masks,
)
from repro.errors import EmptyLogError
from repro.graphs.digraph import DiGraph
from repro.graphs.scc import component_map_adjacency
from repro.graphs.transitive import transitive_reduction_packed
from repro.logs.event_log import EventLog
from repro.logs.execution import Execution
from repro.obs.recorder import NULL_RECORDER, Recorder

Vertex = Hashable
Pair = Tuple[Vertex, Vertex]

#: ``(prepared, multiplicity)`` — one deduplicated trace variant.
WeightedVariant = Tuple["PreparedExecution", int]

#: ``(vertices, pairs, overlaps)`` of one packed trace variant.
VariantKey = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]
#: ``(key, multiplicity)`` — one packed variant as steps 2–6 take it.
PackedItem = Tuple[VariantKey, int]
#: ``(pair_counts, overlap_counts, vertex_ids)`` a folding caller keeps.
StepTwoCounters = Tuple[Mapping[int, int], Mapping[int, int], Iterable[int]]

#: Sentinel distinguishing "not cached" from a cached ``None`` verdict.
_UNKNOWN = object()


@dataclass(frozen=True)
class PreparedExecution:
    """One execution reduced to what steps 2–6 need.

    Attributes
    ----------
    vertices:
        The vertices (activities, or labelled instances for Algorithm 3)
        that completed in the execution.
    pairs:
        Ordered vertex pairs ``(u, v)`` — ``u`` terminated before ``v``
        started.
    overlaps:
        Canonical (sorted) pairs of vertices observed overlapping in
        time; overlapping activities are independent (Section 2), so the
        miner treats an overlap like seeing the pair in both orders.
    """

    vertices: FrozenSet[Vertex]
    pairs: FrozenSet[Pair]
    overlaps: FrozenSet[Pair] = frozenset()


@dataclass
class MiningTrace:
    """Stage-by-stage diagnostics of one Algorithm 2/3 run.

    Edge counts after each step let the ablation benches show what each
    stage contributes; ``pair_counts`` holds the Section 6 noise counters.
    The throughput fields (``timings``, ``execution_count``,
    ``variant_count``, the ``reduction_cache_*`` counters) feed
    ``repro-miner mine --profile`` and the performance harness.

    ``pair_counts`` and ``overlap_counts`` are *lazy*: the fused row
    pipeline never builds label-level counters on its own behalf, so
    they materialize from the packed run data on first access (and stay
    assignable, which the reference pipeline uses).  ``publish`` reports
    the distinct-pair count without forcing materialization.

    Step-5 cache traffic is reported in three separate buckets
    (``--profile`` and the ``repro_kernel_prefix_cache_events_total``
    metric): ``reduction_cache_hits`` are reductions answered outright
    by an exact key (induced-edge-set memo or an already-reduced variant
    mask), ``reduction_cache_prefix_extends`` are reductions that
    resumed mid-walk from a shared variant prefix and paid only for the
    suffix, and ``reduction_cache_misses`` were computed cold.

    Since the observability layer landed, ``MiningTrace`` is a thin
    façade over :mod:`repro.obs`: every stage runs inside
    :meth:`stage`, which opens a ``mine/<name>`` span on ``recorder``
    (wall + CPU time, nesting) and mirrors the wall seconds into the
    legacy ``timings`` dict, and :meth:`publish` copies the counters
    into the recorder's :class:`~repro.obs.metrics.MetricsRegistry`
    under the stable names of ``docs/OBSERVABILITY.md``.  With the
    default :data:`~repro.obs.recorder.NULL_RECORDER` all of that is a
    no-op and only the legacy fields are filled, exactly as before.
    """

    #: Observability sink; the shared no-op recorder unless a run
    #: opted in (``--metrics-out``, the perf harness, tests).
    recorder: Recorder = field(default=NULL_RECORDER, repr=False)
    edges_after_step2: int = 0
    edges_dropped_by_threshold: int = 0
    edges_dropped_by_overlap: int = 0
    edges_after_step3: int = 0
    edges_after_step4: int = 0
    edges_after_step6: int = 0
    scc_edge_removals: int = 0
    #: Per-stage wall-clock seconds (prepare/intern/step2/.../step6).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Executions mined (sum of variant multiplicities).
    execution_count: int = 0
    #: Distinct trace variants after deduplication.
    variant_count: int = 0
    #: Step-5 reductions answered by an exact cache key.
    reduction_cache_hits: int = 0
    #: Step-5 reductions actually computed (cold).
    reduction_cache_misses: int = 0
    #: Step-5 reductions resumed from a cached variant prefix.
    reduction_cache_prefix_extends: int = 0
    #: Computed reductions per implementation path
    #: (``slotted``/``walker``/``scalar``).
    reduction_paths: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._pair_counts: Optional[Counter] = Counter()
        self._overlap_counts: Optional[Counter] = Counter()
        self._pair_thunk: Optional[Callable[[], Counter]] = None
        self._overlap_thunk: Optional[Callable[[], Counter]] = None
        self._distinct_pairs: Optional[int] = None

    # ------------------------------------------------------------------
    # Lazy label-level counters
    # ------------------------------------------------------------------
    @property
    def pair_counts(self) -> Counter:
        """Label-level follows-pair counters (Section 6 evidence)."""
        if self._pair_counts is None:
            assert self._pair_thunk is not None
            self._pair_counts = self._pair_thunk()
            self._pair_thunk = None
        return self._pair_counts

    @pair_counts.setter
    def pair_counts(self, value: Counter) -> None:
        self._pair_counts = value
        self._pair_thunk = None

    @property
    def overlap_counts(self) -> Counter:
        """Label-level overlapping-pair counters."""
        if self._overlap_counts is None:
            assert self._overlap_thunk is not None
            self._overlap_counts = self._overlap_thunk()
            self._overlap_thunk = None
        return self._overlap_counts

    @overlap_counts.setter
    def overlap_counts(self, value: Counter) -> None:
        self._overlap_counts = value
        self._overlap_thunk = None

    def defer_pair_counts(
        self, thunk: Callable[[], Counter], distinct: int
    ) -> None:
        """Materialize ``pair_counts`` from ``thunk`` on first access.

        ``distinct`` is the number of distinct pairs the thunk would
        produce, letting :meth:`publish` report the pair count without
        paying for the label-level Counter nobody may ever read.
        """
        self._pair_counts = None
        self._pair_thunk = thunk
        self._distinct_pairs = distinct

    def defer_overlap_counts(self, thunk: Callable[[], Counter]) -> None:
        """Materialize ``overlap_counts`` from ``thunk`` on first access."""
        self._overlap_counts = None
        self._overlap_thunk = thunk

    def dedup_ratio(self) -> float:
        """Executions per distinct variant (1.0 = no duplication)."""
        if not self.variant_count:
            return 1.0
        return self.execution_count / self.variant_count

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Run one pipeline stage under a ``mine/<name>`` span.

        Wall seconds also accumulate into the legacy ``timings`` dict,
        so ``--profile`` and every pre-observability consumer keep
        working unchanged.
        """
        with self.recorder.span(f"mine/{name}"):
            started = perf_counter()
            try:
                yield
            finally:
                self.timings[name] = (
                    self.timings.get(name, 0.0)
                    + perf_counter()
                    - started
                )

    def publish(self) -> None:
        """Mirror the trace counters into the recorder's registry.

        Metric names are part of the stable catalogue
        (``docs/OBSERVABILITY.md``).  No-op under the null recorder.
        """
        recorder = self.recorder
        if not recorder.enabled:
            return
        if self._pair_counts is not None:
            pairs_extracted = len(self._pair_counts)
        else:
            pairs_extracted = self._distinct_pairs or 0
        recorder.count(
            "repro_mine_executions_total", self.execution_count
        )
        recorder.count("repro_mine_variants_total", self.variant_count)
        recorder.count(
            "repro_mine_pairs_extracted_total", pairs_extracted
        )
        recorder.count(
            "repro_mine_step5_cache_hits_total",
            self.reduction_cache_hits,
        )
        recorder.count(
            "repro_mine_step5_cache_misses_total",
            self.reduction_cache_misses,
        )
        recorder.count(
            "repro_mine_step5_cache_prefix_extends_total",
            self.reduction_cache_prefix_extends,
        )
        recorder.count(
            "repro_mine_scc_edges_removed_total", self.scc_edge_removals
        )
        recorder.count(
            "repro_mine_edges_dropped_total",
            self.edges_dropped_by_threshold,
            labels={"cause": "threshold"},
        )
        recorder.count(
            "repro_mine_edges_dropped_total",
            self.edges_dropped_by_overlap,
            labels={"cause": "overlap"},
        )
        for path, computed in sorted(self.reduction_paths.items()):
            recorder.count(
                "repro_kernel_reductions_total",
                computed,
                labels={"path": path},
            )
        for event, events in (
            ("exact_hit", self.reduction_cache_hits),
            ("prefix_extend", self.reduction_cache_prefix_extends),
            ("miss", self.reduction_cache_misses),
        ):
            recorder.count(
                "repro_kernel_prefix_cache_events_total",
                events,
                labels={"event": event},
            )
        for stage_name, edge_count in (
            ("step2", self.edges_after_step2),
            ("step3", self.edges_after_step3),
            ("step4", self.edges_after_step4),
            ("step6", self.edges_after_step6),
        ):
            recorder.gauge(
                "repro_mine_edges",
                edge_count,
                labels={"stage": stage_name},
            )


# ----------------------------------------------------------------------
# Preparation (step 2 extraction) with variant dedup
# ----------------------------------------------------------------------
def prepare_executions(
    executions: Sequence[Execution],
    labelled: bool = False,
) -> List[PreparedExecution]:
    """Extract :class:`PreparedExecution` views, once per trace variant.

    Executions with equal :meth:`~repro.logs.execution.Execution.
    variant_key` share one prepared object, so the quadratic pair
    extraction runs once per *distinct* variant; the returned list is
    aligned with the input order.
    """
    prepared: Dict[Tuple, PreparedExecution] = {}
    out: List[PreparedExecution] = []
    for execution in executions:
        key = execution.variant_key()
        view = prepared.get(key)
        if view is None:
            if labelled:
                view = PreparedExecution(
                    vertices=frozenset(execution.labelled_sequence()),
                    pairs=execution.labelled_ordered_pair_set(),
                    overlaps=execution.labelled_overlapping_pair_set(),
                )
            else:
                view = PreparedExecution(
                    vertices=execution.activities,
                    pairs=execution.ordered_pair_set(),
                    overlaps=execution.overlapping_pair_set(),
                )
            prepared[key] = view
        out.append(view)
    return out


def prepare_log(log: EventLog) -> List[PreparedExecution]:
    """Extract :class:`PreparedExecution` views from a log (plain labels)."""
    return prepare_executions(list(log), labelled=False)


# ----------------------------------------------------------------------
# Fused packed preparation (dedup + intern + pair extraction in one pass)
# ----------------------------------------------------------------------
def _pack_execution(
    execution: Execution,
    index: Dict[Vertex, int],
    size: int,
    labelled: bool,
) -> VariantKey:
    """Extract one execution's packed ``(vertices, pairs, overlaps)``.

    Sequential traces (the common case) never touch label tuples at all:
    ordered pairs are produced directly as packed codes from the interned
    id sequence via the suffix-set trick.  Interval-overlapping traces
    fall back to the cached label-level sets and pack them.
    """
    sequence: Sequence[Vertex] = (
        execution.labelled_sequence() if labelled else execution.sequence
    )
    ids = [index[label] for label in sequence]
    vertices = frozenset(ids)
    if execution.is_sequential():
        pairs: Set[int] = set()
        later: Set[int] = set()
        for vertex_id in reversed(ids):
            if later:
                base = vertex_id * size
                pairs.update(base + other for other in later)
            later.add(vertex_id)
        # The suffix pass adds (a, a) when an activity repeats;
        # same-label pairs belong only to the relabelled view.
        pairs.difference_update(
            vertex_id * size + vertex_id for vertex_id in later
        )
        return vertices, frozenset(pairs), frozenset()
    if labelled:
        ordered = execution.labelled_ordered_pair_set()
        overlapping = execution.labelled_overlapping_pair_set()
    else:
        ordered = execution.ordered_pair_set()
        overlapping = execution.overlapping_pair_set()
    return (
        vertices,
        frozenset(index[u] * size + index[v] for u, v in ordered),
        frozenset(index[u] * size + index[v] for u, v in overlapping),
    )


def prepare_packed_log(
    executions: Sequence[Execution],
    labelled: bool = False,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[InternTable, List[PackedVariant]]:
    """Deduplicate, intern and pack executions in one fused pass.

    This is the fast entry into the step 2–6 core used by
    :func:`mine_general_dag` and Algorithm 3: label-level
    :class:`PreparedExecution` objects are never materialized, so the
    quadratic pair extraction produces packed int codes directly.  The
    returned variants are in first-seen order with multiplicities
    summing to ``len(executions)``.
    """
    # Sub-spans let --profile show where prepare time goes: variant
    # dedup ("parse"), label interning ("intern"), pair extraction
    # ("pairs").  They nest inside the caller's mine/prepare span.
    with recorder.span("mine/prepare/parse"):
        keys = [execution.variant_key() for execution in executions]
        multiplicities = Counter(keys)
        seen: Set[Tuple] = set()
        representatives: List[Execution] = []
        representative_keys: List[Tuple] = []
        for key, execution in zip(keys, executions, strict=True):
            if key not in seen:
                seen.add(key)
                representatives.append(execution)
                representative_keys.append(key)

    with recorder.span("mine/prepare/intern"):
        labels: Set[Vertex] = set()
        if labelled:
            for execution in representatives:
                labels.update(execution.labelled_sequence())
        else:
            for execution in representatives:
                labels.update(execution.activities)
        table = InternTable(labels)
        size = max(len(table), 1)

    with recorder.span("mine/prepare/pairs"):
        index = table.index
        variants = [
            PackedVariant(
                *_pack_execution(execution, index, size, labelled),
                multiplicity=multiplicities[key],
            )
            for execution, key in zip(
                representatives, representative_keys, strict=True
            )
        ]
    return table, variants


# ----------------------------------------------------------------------
# Steps 2–6 over packed variants
# ----------------------------------------------------------------------
def _reverse_code(code: int, n: int) -> int:
    u, v = divmod(code, n)
    return v * n + u


def _ranks_from_adjacency(
    adjacency: Dict[int, List[int]], n: int
) -> Optional[Dict[int, int]]:
    """Kahn ranks straight off an id-list adjacency, or ``None`` on a
    cycle.  Computed once per run so that each step-5 reduction can
    skip its own Kahn pass (a subgraph of a DAG respects any
    topological order of the full DAG), and doubling as step 4's
    acyclicity test: a completed order proves every strongly connected
    component is a singleton, letting step 4 skip the SCC pass."""
    indegree = [0] * n
    present = [False] * n
    for u, targets in adjacency.items():
        present[u] = True
        for v in targets:
            indegree[v] += 1
            present[v] = True
    ready = [u for u in range(n) if present[u] and not indegree[u]]
    order: List[int] = []
    adjacency_get = adjacency.get
    while ready:
        u = ready.pop()
        order.append(u)
        for v in adjacency_get(u, ()):
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    if len(order) != sum(present):
        return None
    return {u: position for position, u in enumerate(order)}


def _total_order_mask(
    variant: Sequence[FrozenSet[int]],
    n: int,
    cache: Optional[Dict[FrozenSet[int], Optional[int]]] = None,
) -> Optional[int]:
    """The variant's vertex bitmask when its pairs are a total order.

    ``variant`` is a :class:`~repro.core.interning.PackedVariant` or a
    bare ``(vertices, pairs, overlaps)`` key.

    Returns ``None`` for anything else — only total-order variants may
    take the batched step-5 path, because only for them does the
    induced edge set provably equal ``edges & (S x S)`` (see
    :mod:`repro.core.kernels`).

    The verification is one pass over the pairs: a loopless simple
    digraph on ``S`` with ``C(k, 2)`` edges whose out-degrees are
    pairwise distinct *and* whose in-degrees are pairwise distinct is a
    transitive tournament.  (Distinct out-degrees bounded by ``k - 1``
    summing to ``C(k, 2)`` must be ``{0, …, k-1}``; the out-degree-
    ``k-1`` vertex beats everyone and — having in-degree 0, the only
    value left — is beaten by no one, so removing it recurses.)

    ``cache`` (keyed by the pairs frozenset, which caches its own hash)
    lets repeated ``finish()`` calls skip re-verification.
    """
    vertices, pairs, overlaps = variant[0], variant[1], variant[2]
    if overlaps:
        return None
    k = len(vertices)
    if len(pairs) != (k * (k - 1)) // 2:
        return None
    if cache is not None:
        cached = cache.get(pairs, _UNKNOWN)
        if cached is not _UNKNOWN:
            return cached  # type: ignore[return-value]
    outdeg: Dict[int, int] = {}
    indeg: Dict[int, int] = {}
    result: Optional[int] = None
    for code in pairs:
        u, v = divmod(code, n)
        if u == v:
            break
        outdeg[u] = outdeg.get(u, 0) + 1
        indeg[v] = indeg.get(v, 0) + 1
    else:
        if (
            len(outdeg) == k - 1
            and len(set(outdeg.values())) == k - 1
            and len(indeg) == k - 1
            and len(set(indeg.values())) == k - 1
            and vertices.issuperset(outdeg)
            and vertices.issuperset(indeg)
        ) or k <= 1:
            mask = 0
            for vertex_id in vertices:
                mask |= 1 << vertex_id
            result = mask
    if cache is not None:
        cache[pairs] = result
    return result


def mine_variants(
    variants: Sequence[WeightedVariant],
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    skip_scc_removal: bool = False,
    skip_execution_marking: bool = False,
    kernel_state: Optional[KernelState] = None,
) -> DiGraph:
    """Run steps 2–6 of Algorithm 2 over weighted trace variants.

    This is the interned core shared by :func:`mine_prepared` and the
    incremental miner.  Each ``(prepared, multiplicity)`` entry stands
    for ``multiplicity`` identical executions; the result is identical
    to mining the expanded sequence with the naive reference pipeline.
    """
    variants = [(prepared, int(count)) for prepared, count in variants]
    if not variants:
        raise EmptyLogError("cannot mine an empty set of executions")
    trace = trace if trace is not None else MiningTrace()

    with trace.stage("intern"):
        table, packed = intern_variants(variants)
    return _mine_packed(
        table.labels,
        len(table),
        _keyed(packed),
        threshold=threshold,
        trace=trace,
        skip_scc_removal=skip_scc_removal,
        skip_execution_marking=skip_execution_marking,
        kernel_state=kernel_state,
    )


def _keyed(packed: Sequence[PackedVariant]) -> List[PackedItem]:
    """Batch-pipeline variants in the core's ``(key, count)`` shape."""
    return [(variant[:3], variant.multiplicity) for variant in packed]


def _mine_packed(
    labels: Sequence[Vertex],
    n: int,
    variants: Collection[PackedItem],
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    skip_scc_removal: bool = False,
    skip_execution_marking: bool = False,
    reduction_memo: Optional[
        Dict[FrozenSet[int], FrozenSet[int]]
    ] = None,
    kernel_state: Optional[KernelState] = None,
    counters: Optional[StepTwoCounters] = None,
) -> DiGraph:
    """Steps 2–6 over interned packed variants.

    ``labels[i]`` names vertex id ``i`` and pair codes are ``u * n +
    v`` for any modulus ``n >= len(labels)`` — the batch pipelines pass
    a canonical :class:`~repro.core.interning.InternTable`, while
    :meth:`MiningState.finish <repro.core.state.MiningState.finish>`
    passes its own growable table and capacity, so no code is remapped
    per call.  ``variants`` holds ``((vertices, pairs, overlaps),
    multiplicity)`` items.  Whatever the id assignment, the graph is
    the same down to node and edge insertion order: nodes are sorted
    by ``repr`` and edges inserted in that order of their endpoints.

    ``counters`` — ``(pair_counts, overlap_counts, vertex_ids)`` — lets
    a caller that maintains the step-2 counters while folding (the
    mining state) skip recounting every pair; without it step 2 counts
    them from ``variants``.

    ``reduction_memo`` optionally persists scalar step-5 results across
    calls: it maps an execution's *induced edge set* to the edges its
    transitive reduction kept, which depends on that set alone, so a
    caller whose pair codes are stable can pass the same dict again.

    With ``threshold <= 1``, total-order variants skip the per-variant scalar
    reduction entirely: they are verified once
    (:func:`_total_order_mask`), collapsed to vertex bitmasks, and
    reduced in one slotted bit-parallel batch.  Everything else
    (overlaps, repeated activities, ``threshold > 1``, cyclic
    ablations) takes the scalar path.

    A persistent ``kernel_state`` makes repeated calls incremental for
    a caller whose ``variants`` only ever grow at the end (see
    :class:`~repro.core.kernels.KernelState`).  On an unchanged step-3
    edge set, step 4 is replayed and step 5 reduces only the variants
    past the state's cursor; and with ``threshold <= 1`` a call that
    sees no new variant returns the previous graph (rebuilt, so the
    caller owns it) — every step depends only on the variant set then,
    and an append-only sequence of the same length is the same set.
    """
    if not variants:
        raise EmptyLogError("cannot mine an empty set of executions")
    n = max(n, 1)
    trace = trace if trace is not None else MiningTrace()
    trace.execution_count = sum(map(itemgetter(1), variants))
    trace.variant_count = len(variants)

    # Step 2 — union of ordered pairs, with multiplicity-weighted
    # occurrence counters.
    result_token = (
        n,
        len(variants),
        max(threshold, 1),
        skip_scc_removal,
        skip_execution_marking,
    )
    replay = (
        kernel_state.result
        if kernel_state is not None
        and threshold <= 1
        and kernel_state.result_token == result_token
        else None
    )
    with trace.stage("step2_counters"):
        if counters is None:
            code_counts: Dict[int, int] = Counter()
            overlap_code_counts: Dict[int, int] = Counter()
            vertex_ids: Iterable[int] = set()
            for (vertices, pairs, overlaps), count in variants:
                vertex_ids |= vertices
                if count == 1:
                    code_counts.update(pairs)
                    overlap_code_counts.update(overlaps)
                else:
                    code_counts.update(dict.fromkeys(pairs, count))
                    overlap_code_counts.update(
                        dict.fromkeys(overlaps, count)
                    )
        else:
            # The caller keeps folding into its live counters; the
            # trace's deferred view must show them as of this call.
            live_pairs, live_overlaps, vertex_ids = counters
            code_counts = dict(live_pairs)
            overlap_code_counts = dict(live_overlaps)
        # Label-level counters materialize on demand only: indexing the
        # label tuple directly beats ``table.unpack`` per code, and runs
        # not inspecting Section 6 evidence never pay at all.
        label_tuple = tuple(labels)
        trace.defer_pair_counts(
            _packed_counts_thunk(label_tuple, n, code_counts),
            len(code_counts),
        )
        trace.defer_overlap_counts(
            _packed_counts_thunk(label_tuple, n, overlap_code_counts)
        )
        trace.edges_after_step2 = len(code_counts)

    if replay is not None:
        with trace.stage("step6_assemble"):
            nodes, by_source, stage_counts = replay
            for name, value in zip(_STAGE_COUNTS, stage_counts):
                setattr(trace, name, value)
            trace.reduction_cache_hits = len(variants)
            graph = DiGraph.from_grouped_edges(nodes, by_source)
        trace.publish()
        return graph

    with trace.stage("step3_filters"):
        # Section 6 — drop infrequent pairs before the 2-cycle step.
        if threshold > 1:
            edges = {
                code
                for code, count in code_counts.items()
                if count >= threshold
            }
        else:
            edges = set(code_counts)
        trace.edges_dropped_by_threshold = (
            trace.edges_after_step2 - len(edges)
        )

        # Overlap evidence: activities observed running concurrently are
        # independent (Section 2), equivalent to seeing both orders.  The
        # same threshold guards against spuriously overlapping noisy
        # timestamps.
        min_evidence = max(1, threshold)
        independent: Set[int] = set()
        for code, count in overlap_code_counts.items():
            if count >= min_evidence:
                independent.add(code)
                independent.add(_reverse_code(code, n))
        before_overlap = len(edges)
        if independent:
            edges -= independent
        trace.edges_dropped_by_overlap = before_overlap - len(edges)

        # Step 3 — drop 2-cycles.
        edges_after_step3 = frozenset(
            code for code in edges
            if (code % n) * n + code // n not in edges
        )
        trace.edges_after_step3 = len(edges_after_step3)

    # Step 4 — drop edges inside strongly connected components of the
    # followings graph.  The Kahn pass runs first: completing it proves
    # the graph acyclic, so the common case skips Tarjan, and its ranks
    # are what step 5 needs.  A kernel state keyed on the step-3 edges
    # replays the whole step: they determine its output.
    with trace.stage("step4_scc"):
        batch_state = (
            kernel_state.for_step3_edges(
                edges_after_step3, n, skip_scc_removal
            )
            if kernel_state is not None
            else None
        )
        step4 = (
            batch_state.step4_cache if batch_state is not None else None
        )
        if step4 is None:
            adjacency: Dict[int, List[int]] = {}
            endpoints: Set[int] = set()
            for code in edges_after_step3:
                u, v = divmod(code, n)
                endpoints.add(u)
                endpoints.add(v)
                if u in adjacency:
                    adjacency[u].append(v)
                else:
                    adjacency[u] = [v]
            removed = 0
            if skip_scc_removal:
                rank = _ranks_from_adjacency(adjacency, n)
            else:
                adjacency, rank, removed = _drop_scc_edges(adjacency, n)
            step4 = (
                frozenset(
                    u * n + v
                    for u, targets in adjacency.items()
                    for v in targets
                )
                if removed
                else edges_after_step3,
                rank,
                removed,
                endpoints,
            )
            if batch_state is not None:
                batch_state.step4_cache = step4
        step4_edges, rank, removed, endpoints = step4
        trace.scc_edge_removals = removed
        trace.edges_after_step4 = len(step4_edges)

    # Steps 5–6 — keep only edges some execution's transitive reduction
    # needs.  Total-order variants reduce in one slotted batch; the rest
    # reduce once per distinct *induced edge set* via the memo.  A warm
    # kernel state already covers the variants before its cursor, so
    # only the ones folded since are looked at.
    edges = step4_edges
    with trace.stage("step5_reduce"):
        if not skip_execution_marking:
            stats = ReduceStats()
            pending: Iterable[PackedItem] = variants
            if batch_state is not None and batch_state.cursor:
                pending = islice(variants, batch_state.cursor, None)
                stats.exact_hits += batch_state.cursor
            marked: Set[int] = set()
            mask_batch: List[int] = []
            scalar_keys: List[VariantKey] = []
            if threshold <= 1 and rank is not None and step4_edges:
                mask_cache = (
                    kernel_state.mask_cache_for(n)
                    if kernel_state is not None
                    else None
                )
                for key, _ in pending:
                    smask = _total_order_mask(key, n, mask_cache)
                    if smask is None:
                        scalar_keys.append(key)
                    else:
                        mask_batch.append(smask)
            else:
                scalar_keys = [key for key, _ in pending]
            if mask_batch:
                ctx = (
                    batch_state.context
                    if batch_state is not None
                    else None
                )
                if ctx is None:
                    ctx = ReduceContext.from_edges(
                        step4_edges, n, rank or {}
                    )
                    if batch_state is not None:
                        batch_state.context = ctx
                marked |= reduce_masks(ctx, mask_batch, batch_state, stats)
            seen_keys: Dict[FrozenSet[int], None] = {}
            for _, pairs, _ in scalar_keys:
                induced = pairs & step4_edges
                if induced not in seen_keys:
                    seen_keys[induced] = None
            distinct_keys = list(seen_keys)
            if reduction_memo is None:
                missing = distinct_keys
            else:
                # A reduction depends only on its induced edge set, so
                # memoized keys skip the reduction entirely; their kept
                # edges fold in below like freshly computed ones.
                missing = []
                for key in distinct_keys:
                    kept = reduction_memo.get(key)
                    if kept is None:
                        missing.append(key)
                    else:
                        marked |= kept
            for induced in missing:
                kept = transitive_reduction_packed(induced, n, rank)
                if reduction_memo is not None:
                    reduction_memo[induced] = kept
                marked |= kept
            stats.bump("scalar", len(missing))
            if batch_state is not None:
                batch_state.marked_union |= marked
                batch_state.cursor = len(variants)
                marked = batch_state.marked_union
            trace.reduction_cache_hits = (
                len(scalar_keys) - len(missing) + stats.exact_hits
            )
            trace.reduction_cache_misses = len(missing) + stats.misses
            trace.reduction_cache_prefix_extends = stats.prefix_extends
            trace.reduction_paths = dict(stats.paths)
            edges = marked

    # Materialize the label-level graph.  Node set mirrors the legacy
    # pipeline exactly: every variant vertex, plus the endpoints of the
    # edges that survived step 3 (even if steps 4–6 later pruned them).
    with trace.stage("step6_assemble"):
        nodes = sorted(
            (labels[vertex_id] for vertex_id in endpoints.union(vertex_ids)),
            key=repr,
        )
        position = {label: index for index, label in enumerate(nodes)}
        edge_pairs = sorted(
            ((labels[code // n], labels[code % n]) for code in edges),
            key=lambda edge: (position[edge[0]], position[edge[1]]),
        )
        by_source = [
            (source, [target for _, target in group])
            for source, group in groupby(edge_pairs, key=itemgetter(0))
        ]
        graph = DiGraph.from_grouped_edges(nodes, by_source)
        trace.edges_after_step6 = graph.edge_count
    if kernel_state is not None:
        kernel_state.result_token = result_token
        kernel_state.result = (
            nodes,
            by_source,
            tuple(getattr(trace, name) for name in _STAGE_COUNTS),
        )
    trace.publish()
    return graph


#: The per-stage edge counts a replayed result restores on the trace.
_STAGE_COUNTS = (
    "edges_after_step2",
    "edges_dropped_by_threshold",
    "edges_dropped_by_overlap",
    "edges_after_step3",
    "scc_edge_removals",
    "edges_after_step4",
    "edges_after_step6",
)


def _drop_scc_edges(
    adjacency: Dict[int, List[int]], n: int
) -> Tuple[Dict[int, List[int]], Dict[int, int], int]:
    """Step 4 over an id-list adjacency.

    Returns the adjacency without the edges inside strongly connected
    components, its topological ranks and how many edges were dropped.
    A completed Kahn pass proves every component a singleton, so the
    acyclic case — the common one — never runs Tarjan.
    """
    rank = _ranks_from_adjacency(adjacency, n) if adjacency else {}
    if rank is not None:
        return adjacency, rank, 0
    mapping = component_map_adjacency(adjacency)
    kept_adjacency: Dict[int, List[int]] = {}
    removed = 0
    for u, targets in adjacency.items():
        component = mapping[u]
        kept = [v for v in targets if mapping[v] != component]
        removed += len(targets) - len(kept)
        if kept:
            kept_adjacency[u] = kept
    # Cross-component edges condense to a DAG, so this second pass
    # always succeeds.
    return (
        kept_adjacency,
        _ranks_from_adjacency(kept_adjacency, n) or {},
        removed,
    )


def _packed_counts_thunk(
    labels: Tuple[Vertex, ...], n: int, code_counts: Counter
) -> Callable[[], Counter]:
    """Deferred label-level view of a packed-code Counter."""

    def materialize() -> Counter:
        return Counter(
            {
                (labels[code // n], labels[code % n]): count
                for code, count in code_counts.items()
            }
        )

    return materialize


def mine_prepared(
    prepared: Sequence[PreparedExecution],
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    skip_scc_removal: bool = False,
    skip_execution_marking: bool = False,
    kernel_state: Optional[KernelState] = None,
) -> DiGraph:
    """Run steps 2–6 of Algorithm 2 over prepared executions.

    Parameters
    ----------
    prepared:
        Per-execution vertex and ordered-pair sets.
    threshold:
        Section 6 noise threshold ``T``; ordered pairs occurring in fewer
        than ``T`` executions are dropped before the 2-cycle step.  ``0``
        (and ``1``) keep everything.
    trace:
        Optional diagnostics sink.
    skip_scc_removal, skip_execution_marking:
        Ablation switches disabling step 4 or steps 5–6; used only by the
        ablation benches, never by the public miners.
    kernel_state:
        Optional persistent step-5 cache for incremental callers.

    Returns
    -------
    DiGraph
        The mined graph over all vertices seen in ``prepared``.
    """
    if not prepared:
        raise EmptyLogError("cannot mine an empty set of executions")
    # Identical prepared executions collapse into weighted variants;
    # PreparedExecution is frozen and hashable, and Counter preserves
    # first-seen order, so the dedup is deterministic.
    variant_counts = Counter(prepared)
    return mine_variants(
        list(variant_counts.items()),
        threshold=threshold,
        trace=trace,
        skip_scc_removal=skip_scc_removal,
        skip_execution_marking=skip_execution_marking,
        kernel_state=kernel_state,
    )


# ----------------------------------------------------------------------
# Fused bit-row pipeline (sequential variants, threshold <= 1)
# ----------------------------------------------------------------------
def _mine_rows(
    executions: Sequence[Execution],
    trace: MiningTrace,
    kernel_state: Optional[KernelState],
) -> DiGraph:
    """Steps 2–6 over bit-rows — the serial fast path of Algorithm 2.

    Requires ``threshold <= 1`` (the caller gates on it).  Instead of
    materializing a pair-code set per variant, step 2 folds every
    sequential no-repeat trace straight into per-source successor
    bitmasks (``rows[u]`` bit ``v`` = pair ``(u, v)`` observed): one
    suffix-mask pass per variant, whose final mask doubles as the
    variant's vertex mask for the batched step 5.  Steps 3–4 are then
    bitmask algebra over ``rows`` and step 5 reduces all those variants
    in one slotted batch.  Traces the bit representation cannot
    express (repeated activities, interval overlaps) are packed the
    classic way and reduced scalar — mixed logs take both paths, with
    identical results to the reference pipeline either way.

    Label-level ``pair_counts`` are deferred: the thunk re-derives them
    from the retained id sequences only when Section 6 evidence is
    actually inspected.
    """
    with trace.stage("prepare"):
        recorder = trace.recorder
        with recorder.span("mine/prepare/parse"):
            keys = [execution.variant_key() for execution in executions]
            multiplicities = Counter(keys)
            seen: Set[Tuple] = set()
            representatives: List[Execution] = []
            representative_keys: List[Tuple] = []
            for key, execution in zip(keys, executions, strict=True):
                if key not in seen:
                    seen.add(key)
                    representatives.append(execution)
                    representative_keys.append(key)
        with recorder.span("mine/prepare/intern"):
            label_set: Set[Vertex] = set()
            for execution in representatives:
                label_set.update(execution.activities)
            table = InternTable(label_set)
            n = max(len(table), 1)
            index = table.index
        # (ids, multiplicity) per sequential no-repeat variant;
        # everything else packs into classic PackedVariants.
        mask_variants: List[Tuple[List[int], int]] = []
        fallback: List[PackedVariant] = []
        with recorder.span("mine/prepare/pairs"):
            for execution, key in zip(
                representatives, representative_keys, strict=True
            ):
                ids = [index[label] for label in execution.sequence]
                count = multiplicities[key]
                if execution.is_sequential():
                    if len(ids) == len(frozenset(ids)):
                        mask_variants.append((ids, count))
                        continue
                    # Sequential with repeats: suffix-set extraction
                    # minus the same-label pairs, like _pack_execution.
                    pair_codes: Set[int] = set()
                    later: Set[int] = set()
                    for vertex_id in reversed(ids):
                        if later:
                            base = vertex_id * n
                            pair_codes.update(
                                base + other for other in later
                            )
                        later.add(vertex_id)
                    pair_codes.difference_update(
                        vertex_id * n + vertex_id for vertex_id in later
                    )
                    fallback.append(
                        PackedVariant(
                            vertices=frozenset(ids),
                            pairs=frozenset(pair_codes),
                            overlaps=frozenset(),
                            multiplicity=count,
                        )
                    )
                else:
                    ordered = execution.ordered_pair_set()
                    overlapping = execution.overlapping_pair_set()
                    fallback.append(
                        PackedVariant(
                            vertices=frozenset(ids),
                            pairs=frozenset(
                                index[u] * n + index[v]
                                for u, v in ordered
                            ),
                            overlaps=frozenset(
                                index[u] * n + index[v]
                                for u, v in overlapping
                            ),
                            multiplicity=count,
                        )
                    )
    trace.execution_count = len(executions)
    trace.variant_count = len(representatives)

    # Step 2 — successor bitmask per source vertex, one suffix pass per
    # variant; the pass's final mask is the variant's vertex mask.
    with trace.stage("step2_counters"):
        rows = [0] * n
        one = [1 << i for i in range(n)]
        smasks: List[int] = []
        vertex_mask = 0
        for ids, _ in mask_variants:
            m = 0
            for vertex_id in reversed(ids):
                rows[vertex_id] |= m
                m |= one[vertex_id]
            smasks.append(m)
            vertex_mask |= m
        overlap_code_counts: Counter = Counter()
        for variant in fallback:
            for code in variant.pairs:
                rows[code // n] |= one[code % n]
            if variant.overlaps:
                if variant.multiplicity == 1:
                    overlap_code_counts.update(variant.overlaps)
                else:
                    overlap_code_counts.update(
                        dict.fromkeys(
                            variant.overlaps, variant.multiplicity
                        )
                    )
            for vertex_id in variant.vertices:
                vertex_mask |= one[vertex_id]
        trace.edges_after_step2 = sum(
            row.bit_count() for row in rows
        )
        labels = table.labels
        trace.defer_pair_counts(
            _row_pair_counts_thunk(labels, n, mask_variants, fallback),
            trace.edges_after_step2,
        )
        trace.defer_overlap_counts(
            _packed_counts_thunk(labels, n, overlap_code_counts)
        )

    # Step 3 — overlap independence, then 2-cycles, in bit space.
    with trace.stage("step3_filters"):
        trace.edges_dropped_by_threshold = 0  # caller gates T <= 1
        dropped_overlap = 0
        for code in overlap_code_counts:
            u, v = divmod(code, n)
            if (rows[u] >> v) & 1:
                rows[u] ^= one[v]
                dropped_overlap += 1
            if (rows[v] >> u) & 1:
                rows[v] ^= one[u]
                dropped_overlap += 1
        trace.edges_dropped_by_overlap = dropped_overlap
        cols = [0] * n
        for u in range(n):
            row = rows[u]
            while row:
                bit = row & -row
                row ^= bit
                cols[bit.bit_length() - 1] |= one[u]
        erows = [rows[u] & ~cols[u] for u in range(n)]
        trace.edges_after_step3 = sum(
            row.bit_count() for row in erows
        )
        erows3 = list(erows)

    # Step 4 — SCC collapse over the interned adjacency (no DiGraph).
    # The Kahn pass runs first: completing it proves the graph acyclic
    # (every component a singleton), so the common case skips Tarjan
    # altogether, and its ranks are exactly what step 5 needs.  A warm
    # kernel state keyed on the step-3 rows replays the whole step from
    # its cache — the rows determine the step-4 output byte for byte.
    with trace.stage("step4_scc"):
        batch_state = (
            kernel_state.for_step3_rows(erows3, n)
            if kernel_state is not None
            else None
        )
        cached_step4 = (
            batch_state.step4_cache if batch_state is not None else None
        )
        if cached_step4 is not None:
            erows, adjacency, rank, removed = cached_step4
        else:
            adjacency = {}
            for u in range(n):
                row = erows[u]
                if not row:
                    continue
                targets: List[int] = []
                while row:
                    bit = row & -row
                    row ^= bit
                    targets.append(bit.bit_length() - 1)
                adjacency[u] = targets
            adjacency, rank, removed = _drop_scc_edges(adjacency, n)
            if removed:
                erows = [0] * n
                for u, targets in adjacency.items():
                    mask = 0
                    for v in targets:
                        mask |= one[v]
                    erows[u] = mask
            if batch_state is not None:
                batch_state.step4_cache = (
                    erows, adjacency, rank, removed
                )
        trace.scc_edge_removals = removed
        trace.edges_after_step4 = sum(
            row.bit_count() for row in erows
        )

    # Step 5 — one slotted batch over every mask variant; scalar
    # reductions (with a per-run induced-set memo) for the rest.  The
    # context comes straight from the step-4 rows (no edge re-decode)
    # and is only built when something actually needs reducing: a warm
    # kernel state that already covers every mask answers from its
    # cached union without touching the adjacency again.
    with trace.stage("step5_reduce"):
        stats = ReduceStats()
        marked: Set[int] = set()
        if adjacency:
            if smasks:
                warm = batch_state is not None and all(
                    smask in batch_state.seen_masks for smask in smasks
                )
                if warm:
                    stats.exact_hits += len(smasks)
                    marked |= batch_state.marked_union
                else:
                    ctx = ReduceContext.from_rows(
                        erows,
                        adjacency,
                        n,
                        rank,
                        with_pred=batch_state is not None,
                    )
                    marked |= reduce_masks(ctx, smasks, batch_state, stats)
            if fallback:
                edge_codes: Set[int] = set()
                for u, targets in adjacency.items():
                    base = u * n
                    edge_codes.update(base + v for v in targets)
                memo: Dict[FrozenSet[int], FrozenSet[int]] = {}
                for variant in fallback:
                    induced = variant.pairs & edge_codes
                    kept = memo.get(induced)
                    if kept is None:
                        kept = transitive_reduction_packed(
                            induced, n, rank
                        )
                        memo[induced] = kept
                        stats.misses += 1
                        stats.bump("scalar")
                    else:
                        stats.exact_hits += 1
                    marked |= kept
        trace.reduction_cache_hits = stats.exact_hits
        trace.reduction_cache_misses = stats.misses
        trace.reduction_cache_prefix_extends = stats.prefix_extends
        trace.reduction_paths = dict(stats.paths)

    # Step 6 — assemble the label graph; nodes mirror the legacy
    # pipeline (variant vertices plus step-3 edge endpoints).
    with trace.stage("step6_assemble"):
        node_mask = vertex_mask
        for u in range(n):
            if erows3[u]:
                node_mask |= one[u]
                node_mask |= erows3[u]
        node_ids: List[int] = []
        m = node_mask
        while m:
            bit = m & -m
            m ^= bit
            node_ids.append(bit.bit_length() - 1)
        labels = table.labels
        graph = DiGraph(
            nodes=sorted(
                (labels[vertex_id] for vertex_id in node_ids), key=repr
            )
        )
        by_source: Dict[int, List[int]] = {}
        for code in marked:
            u, v = divmod(code, n)
            by_source.setdefault(u, []).append(v)
        for u, targets in by_source.items():
            graph.add_edges_bulk(
                labels[u], [labels[v] for v in targets]
            )
        trace.edges_after_step6 = graph.edge_count
    trace.publish()
    return graph


def _row_pair_counts_thunk(
    labels: Tuple[Vertex, ...],
    n: int,
    mask_variants: Sequence[Tuple[List[int], int]],
    fallback: Sequence[PackedVariant],
) -> Callable[[], Counter]:
    """Deferred label-level pair counters for the fused row pipeline.

    Mask variants re-derive their pairs from the retained id sequences
    (every ``(ids[i], ids[j])`` with ``i < j`` — they are sequential and
    repeat-free by construction); fallback variants contribute their
    packed pair codes.  Matches the eager reference counters exactly.
    """

    def materialize() -> Counter:
        counts: Counter = Counter()
        for ids, count in mask_variants:
            for i, u in enumerate(ids):
                label_u = labels[u]
                for v in ids[i + 1:]:
                    counts[(label_u, labels[v])] += count
        for variant in fallback:
            count = variant.multiplicity
            for code in variant.pairs:
                counts[(labels[code // n], labels[code % n])] += count
        return counts

    return materialize


def mine_general_dag(
    log: EventLog,
    threshold: int = 0,
    trace: Optional[MiningTrace] = None,
    kernel_state: Optional[KernelState] = None,
) -> DiGraph:
    """Mine a conformal graph of ``log`` with Algorithm 2.

    Parameters
    ----------
    log:
        Executions of one (acyclic) process; activities may be optional.
    threshold:
        Section 6 noise threshold ``T`` (0 disables noise handling).
    trace:
        Optional :class:`MiningTrace` capturing per-stage diagnostics.
    kernel_state:
        Optional persistent step-5 cache for repeated mining of a
        growing log (see :class:`~repro.core.kernels.KernelState`).

    Returns
    -------
    DiGraph
        A conformal graph (Theorem 5) over the log's activities.

    Examples
    --------
    Example 7 of the paper — log ``{ABCF, ACDF, ADEF, AECF}``; C, D and E
    form one strongly connected component of followings, hence are mutually
    independent:

    >>> from repro.logs.event_log import EventLog
    >>> log = EventLog.from_sequences(["ABCF", "ACDF", "ADEF", "AECF"])
    >>> sorted(mine_general_dag(log).edges())
    ... # doctest: +NORMALIZE_WHITESPACE
    [('A', 'B'), ('A', 'C'), ('A', 'D'), ('A', 'E'),
     ('B', 'C'), ('C', 'F'), ('D', 'F'), ('E', 'F')]
    """
    log.require_non_empty()
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    trace = trace if trace is not None else MiningTrace()
    executions = list(log)
    if threshold <= 1:
        return _mine_rows(executions, trace, kernel_state)
    with trace.stage("prepare"):
        table, variants = prepare_packed_log(
            executions, labelled=False, recorder=trace.recorder
        )
    return _mine_packed(
        table.labels,
        len(table),
        _keyed(variants),
        threshold=threshold,
        trace=trace,
        kernel_state=kernel_state,
    )


def presence_by_vertex(
    prepared: Sequence[PreparedExecution],
) -> Dict[Vertex, int]:
    """Count, per vertex, how many prepared executions contain it."""
    counts: Counter = Counter()
    for execution in prepared:
        counts.update(execution.vertices)
    return dict(counts)
