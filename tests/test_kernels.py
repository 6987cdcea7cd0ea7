"""Differential and unit tests for the bit-parallel step-5 machinery.

The mining pipeline must mine graphs and stage diagnostics identical to
:mod:`repro.core.reference` on arbitrary logs; the batched step-5 path,
the prefix-reuse cache, and the packed closure bitset are additionally
checked directly against their scalar counterparts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.general_dag import (
    MiningTrace,
    _total_order_mask,
    mine_general_dag,
)
from repro.core.interning import PackedVariant
from repro.core.kernels import (
    KernelState,
    ReduceContext,
    ReduceStats,
    induced_codes,
    reduce_masks,
    scalar_reduce_union,
    slotted_reduce_union,
    walk_reduce,
)
from repro.core.reference import mine_general_dag_reference
from repro.core.state import MiningState
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import (
    transitive_closure,
    transitive_closure_bitset,
    transitive_reduction_packed,
)
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def subset_logs(draw, max_activities=7, max_executions=10):
    """Sequential logs with skipped activities and duplicated traces."""
    n = draw(st.integers(min_value=1, max_value=max_activities))
    interior = [chr(ord("A") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    sequences = []
    for _ in range(m):
        chosen = [a for a in interior if rng.random() < 0.7]
        rng.shuffle(chosen)
        sequences.append(["S", *chosen, "Z"])
    if draw(st.booleans()) and sequences:
        sequences += sequences[: rng.randint(1, len(sequences))]
    return EventLog.from_sequences(sequences)


@st.composite
def noisy_logs(draw, max_activities=6, max_executions=10):
    """Shuffled logs without the S/Z frame — 2-cycles and SCCs abound."""
    n = draw(st.integers(min_value=2, max_value=max_activities))
    activities = [chr(ord("A") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    sequences = []
    for _ in range(m):
        chosen = [a for a in activities if rng.random() < 0.8] or [
            activities[0]
        ]
        rng.shuffle(chosen)
        sequences.append(chosen)
    return EventLog.from_sequences(sequences)


@st.composite
def interval_logs(draw, max_activities=6, max_executions=6):
    """Interval logs whose activities may overlap in time."""
    n = draw(st.integers(min_value=2, max_value=max_activities))
    activities = [chr(ord("A") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    executions = []
    for index in range(m):
        chosen = [a for a in activities if rng.random() < 0.8] or [
            activities[0]
        ]
        records = []
        execution_id = f"iv-{index}"
        for activity in chosen:
            start = rng.randint(0, 20)
            end = start + rng.randint(1, 6)
            records.append(start_event(execution_id, activity, start))
            records.append(end_event(execution_id, activity, end))
        executions.append(Execution(execution_id, records))
    return EventLog(executions)


@st.composite
def packed_dags(draw, max_vertices=9):
    """A random packed DAG ``(edge codes, n, rank)`` plus variant masks.

    Edges only ever point from a lower to a higher vertex id, so the
    identity order is topological and any vertex subset induces a DAG.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.add(u * n + v)
    rank = {u: u for u in range(n)}
    count = draw(st.integers(min_value=1, max_value=12))
    masks = []
    for _ in range(count):
        mask = 0
        for u in range(n):
            if rng.random() < 0.6:
                mask |= 1 << u
        masks.append(mask)
    return n, edges, rank, masks


def assert_same_mining(fast, ref, fast_trace, ref_trace):
    assert set(fast.nodes()) == set(ref.nodes())
    assert fast.edge_set() == ref.edge_set()
    assert fast_trace.pair_counts == ref_trace.pair_counts
    assert fast_trace.overlap_counts == ref_trace.overlap_counts
    assert fast_trace.edges_after_step2 == ref_trace.edges_after_step2
    assert (
        fast_trace.edges_dropped_by_threshold
        == ref_trace.edges_dropped_by_threshold
    )
    assert (
        fast_trace.edges_dropped_by_overlap
        == ref_trace.edges_dropped_by_overlap
    )
    assert fast_trace.edges_after_step3 == ref_trace.edges_after_step3
    assert fast_trace.edges_after_step4 == ref_trace.edges_after_step4
    assert fast_trace.edges_after_step6 == ref_trace.edges_after_step6
    assert fast_trace.scc_edge_removals == ref_trace.scc_edge_removals


# ---------------------------------------------------------------------------
# Differential: the mining pipeline vs the reference pipeline
# ---------------------------------------------------------------------------
@given(
    log=subset_logs(), threshold=st.integers(min_value=0, max_value=3)
)
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_subset_logs(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_general_dag(log, threshold=threshold, trace=fast_trace)
    ref = mine_general_dag_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert_same_mining(fast, ref, fast_trace, ref_trace)


@given(
    log=noisy_logs(), threshold=st.integers(min_value=0, max_value=3)
)
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_noisy_logs(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_general_dag(log, threshold=threshold, trace=fast_trace)
    ref = mine_general_dag_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert_same_mining(fast, ref, fast_trace, ref_trace)


@given(
    log=interval_logs(), threshold=st.integers(min_value=0, max_value=2)
)
@settings(max_examples=30, deadline=None)
def test_matches_reference_on_interval_logs(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_general_dag(log, threshold=threshold, trace=fast_trace)
    ref = mine_general_dag_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert_same_mining(fast, ref, fast_trace, ref_trace)


# ---------------------------------------------------------------------------
# Batched reduction primitives
# ---------------------------------------------------------------------------
@given(packed_dags())
@settings(max_examples=60, deadline=None)
def test_slotted_batch_matches_scalar_reduction(case):
    n, edges, rank, masks = case
    ctx = ReduceContext.from_edges(edges, n, rank)
    expected = set()
    for smask in masks:
        expected |= transitive_reduction_packed(
            frozenset(induced_codes(ctx, smask)), n, rank
        )
    assert slotted_reduce_union(ctx, masks) == expected
    assert scalar_reduce_union(ctx, masks) == expected


@given(packed_dags())
@settings(max_examples=60, deadline=None)
def test_walker_matches_scalar_reduction(case):
    n, edges, rank, masks = case
    ctx = ReduceContext.from_edges(edges, n, rank)
    trie = {}
    for smask in masks:
        kept, _ = walk_reduce(ctx, smask, trie)
        assert kept == transitive_reduction_packed(
            frozenset(induced_codes(ctx, smask)), n, rank
        )


def test_walker_resumes_from_shared_prefix():
    # Chain 0 -> 1 -> ... -> 5 plus skip edges; two variants share the
    # prefix {0, 1, 2, 3}, so the second walk must resume at position 4.
    n = 6
    edges = {u * n + v for u in range(n) for v in range(u + 1, n)}
    rank = {u: u for u in range(n)}
    ctx = ReduceContext.from_edges(edges, n, rank)
    trie = {}
    first = 0b011111  # vertices 0..4
    second = 0b111111  # vertices 0..5 — extends the first's prefix
    _, start_first = walk_reduce(ctx, first, trie)
    assert start_first == 0
    _, start_second = walk_reduce(ctx, second, trie)
    assert start_second == 5


# ---------------------------------------------------------------------------
# KernelState: cross-call exact hits, prefix extends, resets
# ---------------------------------------------------------------------------
def test_kernel_state_counts_exact_hits_across_calls():
    n = 4
    edges = {0 * n + 1, 1 * n + 2, 2 * n + 3, 0 * n + 3}
    rank = {u: u for u in range(n)}
    ctx = ReduceContext.from_edges(edges, n, rank)
    state = KernelState().for_edges(edges, n)
    first = ReduceStats()
    reduce_masks(ctx, [0b1111, 0b0111], state, first)
    assert first.exact_hits == 0
    assert first.misses == 2
    again = ReduceStats()
    marked = reduce_masks(ctx, [0b1111, 0b0111], state, again)
    assert again.exact_hits == 2
    assert again.misses == 0
    assert marked == {0 * n + 1, 1 * n + 2, 2 * n + 3}


def test_kernel_state_resets_when_edges_change():
    n = 3
    state = KernelState().for_edges({0 * n + 1}, n)
    state.seen_masks.add(0b11)
    state.marked_union.add(0 * n + 1)
    state.for_edges({0 * n + 1}, n)
    assert state.seen_masks == {0b11}
    state.for_edges({0 * n + 2}, n)
    assert state.seen_masks == set()
    assert state.marked_union == set()


def test_mask_cache_survives_edge_resets_but_not_n_change():
    state = KernelState()
    cache = state.mask_cache_for(4)
    cache[frozenset({1})] = 0b10
    state.for_edges({2}, 4)
    assert state.mask_cache_for(4) is cache
    assert state.mask_cache_for(5) == {}


def test_mining_state_reuses_kernel_state_across_finishes():
    state = MiningState()
    log = EventLog.from_sequences(
        ["SABCZ", "SACBZ", "SABZ", "SABCZ"] * 3
    )
    for execution in log:
        state.update(execution)
    first_trace = MiningTrace()
    first = state.finish(trace=first_trace)
    again_trace = MiningTrace()
    again = state.finish(trace=again_trace)
    assert first.edge_set() == again.edge_set()
    # Unchanged log + unchanged edges: every batched variant is now an
    # exact cache hit.
    assert again_trace.reduction_cache_misses == 0
    assert (
        again_trace.reduction_cache_hits
        >= first_trace.reduction_cache_misses
    )
    # No new variant: the second finish reduces nothing at all.
    assert again_trace.reduction_cache_prefix_extends == 0
    assert again_trace.reduction_paths == {}
    assert list(again.edges()) == list(first.edges())


def test_incremental_growth_hits_prefix_cache():
    # Same step-4 edge set both times (the superset log re-observes
    # every pair), growing variants: the second finish may extend
    # cached prefixes instead of re-walking from scratch.
    base = ["SABCDZ", "SABDCZ"]
    state = MiningState()
    for execution in EventLog.from_sequences(base * 2):
        state.update(execution)
    state.finish()
    for execution in EventLog.from_sequences(["SABCZ", "SABCDZ"]):
        state.update(execution)
    trace = MiningTrace()
    state.finish(trace=trace)
    assert (
        trace.reduction_cache_hits
        + trace.reduction_cache_prefix_extends
        > 0
    )


# ---------------------------------------------------------------------------
# Total-order qualification: soundness against degenerate pair sets
# ---------------------------------------------------------------------------
class TestTotalOrderMask:
    def test_accepts_total_order(self):
        n = 4
        pairs = frozenset(
            {0 * n + 1, 0 * n + 2, 1 * n + 2}
        )
        variant = PackedVariant(
            vertices=frozenset({0, 1, 2}),
            pairs=pairs,
            overlaps=frozenset(),
            multiplicity=1,
        )
        assert _total_order_mask(variant, n, None) == 0b111

    def test_rejects_two_cycle_with_matching_count(self):
        # {(0,1), (1,0), (0,2)} has C(3,2) = 3 pairs but is no
        # tournament: out-degrees are distinct, in-degrees are not.
        n = 3
        variant = PackedVariant(
            vertices=frozenset({0, 1, 2}),
            pairs=frozenset({0 * n + 1, 1 * n + 0, 0 * n + 2}),
            overlaps=frozenset(),
            multiplicity=1,
        )
        assert _total_order_mask(variant, n, None) is None

    def test_rejects_self_pair(self):
        n = 3
        variant = PackedVariant(
            vertices=frozenset({0, 1, 2}),
            pairs=frozenset({0 * n + 0, 0 * n + 1, 1 * n + 2}),
            overlaps=frozenset(),
            multiplicity=1,
        )
        assert _total_order_mask(variant, n, None) is None

    def test_rejects_overlapping_variant(self):
        n = 2
        variant = PackedVariant(
            vertices=frozenset({0, 1}),
            pairs=frozenset({0 * n + 1}),
            overlaps=frozenset({0 * n + 1}),
            multiplicity=1,
        )
        assert _total_order_mask(variant, n, None) is None

    def test_rejects_endpoint_outside_vertices(self):
        # Pair endpoints may exceed the variant's completed vertices
        # (labelled interning covers overlap endpoints); such variants
        # must not qualify even when the count matches.
        n = 3
        variant = PackedVariant(
            vertices=frozenset({0, 1}),
            pairs=frozenset({0 * n + 2}),
            overlaps=frozenset(),
            multiplicity=1,
        )
        assert _total_order_mask(variant, n, None) is None

    def test_singleton_and_empty_variants_qualify(self):
        n = 2
        singleton = PackedVariant(
            vertices=frozenset({1}),
            pairs=frozenset(),
            overlaps=frozenset(),
            multiplicity=1,
        )
        assert _total_order_mask(singleton, n, None) == 0b10

    def test_caches_verdicts(self):
        n = 3
        variant = PackedVariant(
            vertices=frozenset({0, 1}),
            pairs=frozenset({0 * n + 1}),
            overlaps=frozenset(),
            multiplicity=1,
        )
        cache = {}
        assert _total_order_mask(variant, n, cache) == 0b11
        assert cache[variant.pairs] == 0b11
        cache[variant.pairs] = 0b1  # poison to prove the hit
        assert _total_order_mask(variant, n, cache) == 0b1


# ---------------------------------------------------------------------------
# Closure bitset vs the materialized closure graph
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_closure_bitset_matches_closure_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    nodes = [chr(ord("A") + i) for i in range(n)]
    edges = [
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and rng.random() < 0.25
    ]
    graph = DiGraph(nodes=nodes, edges=edges)
    closure = transitive_closure(graph)
    bitset = transitive_closure_bitset(graph)
    assert bitset.edge_set() == closure.edge_set()
    for a in nodes:
        for b in nodes:
            assert bitset.has_edge(a, b) == closure.has_edge(a, b)
    assert not bitset.has_edge("missing", nodes[0])


# ---------------------------------------------------------------------------
# Lazy trace counters
# ---------------------------------------------------------------------------
def test_lazy_pair_counts_match_eager_reference():
    log = EventLog.from_sequences(["SABZ", "SBAZ", "SACZ", "SABZ"])
    lazy_trace, ref_trace = MiningTrace(), MiningTrace()
    mine_general_dag(log, trace=lazy_trace)
    mine_general_dag_reference(log, trace=ref_trace)
    assert lazy_trace._pair_counts is None  # still deferred
    assert lazy_trace.pair_counts == ref_trace.pair_counts
    assert lazy_trace._pair_counts is not None  # materialized once
    assert lazy_trace.overlap_counts == ref_trace.overlap_counts


def test_publish_does_not_materialize_pair_counts():
    from repro.obs.recorder import ObsRecorder

    log = EventLog.from_sequences(["SABZ", "SBAZ", "SACZ"])
    trace = MiningTrace(recorder=ObsRecorder())
    mine_general_dag(log, trace=trace)
    assert trace._pair_counts is None
