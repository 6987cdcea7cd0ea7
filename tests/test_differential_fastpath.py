"""Differential tests: fast interned/variant core vs reference.

The high-throughput pipeline of :mod:`repro.core.general_dag` (packed
pair codes, trace-variant dedup, bit-parallel step 5) must be
*byte-identical* in output to the naive per-execution pipeline retained
in :mod:`repro.core.reference`.  These hypothesis properties drive both
over random logs — sequential subset logs, duplicated-variant logs,
cyclic logs with relabelled instances, and overlapping-interval logs —
and assert equal node sets, edge sets, and stage diagnostics.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.general_dag import (
    MiningTrace,
    mine_general_dag,
    prepare_log,
)
from repro.core.cyclic import mine_cyclic
from repro.core.incremental import IncrementalMiner
from repro.core.reference import (
    mine_cyclic_reference,
    mine_general_dag_reference,
    prepare_log_reference,
)
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def subset_logs(draw, max_activities=7, max_executions=10):
    """Sequential logs whose executions may skip interior activities and
    may repeat whole traces (exercising variant dedup)."""
    n = draw(st.integers(min_value=1, max_value=max_activities))
    interior = [chr(ord("A") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    duplicate = draw(st.booleans())
    rng = random.Random(seed)
    sequences = []
    for _ in range(m):
        chosen = [a for a in interior if rng.random() < 0.7]
        rng.shuffle(chosen)
        sequences.append(["S", *chosen, "Z"])
    if duplicate and sequences:
        # Repeat a random prefix of the log so several executions share
        # one trace variant.
        sequences += sequences[: rng.randint(1, len(sequences))]
    return EventLog.from_sequences(sequences)


@st.composite
def cyclic_logs(draw, max_activities=5, max_executions=8):
    """Logs whose executions repeat activities (Algorithm 3's setting)."""
    n = draw(st.integers(min_value=1, max_value=max_activities))
    activities = [chr(ord("A") + i) for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    sequences = []
    for _ in range(m):
        length = rng.randint(1, 8)
        sequence = [rng.choice(activities) for _ in range(length)]
        sequences.append(["S", *sequence, "Z"])
    if draw(st.booleans()) and sequences:
        sequences += sequences[: rng.randint(1, len(sequences))]
    return EventLog.from_sequences(sequences)


@st.composite
def interval_logs(draw, max_activities=6, max_executions=6):
    """Logs with arbitrary activity intervals, including overlaps.

    Random start/duration pairs make some instances run concurrently,
    which drives the overlap-independence filter — the path the
    sequential-trace shortcut never takes.
    """
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


def assert_same_mining(fast_graph, ref_graph, fast_trace, ref_trace):
    assert set(fast_graph.nodes()) == set(ref_graph.nodes())
    assert fast_graph.edge_set() == ref_graph.edge_set()
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
# Algorithm 2 differentials
# ---------------------------------------------------------------------------
@given(subset_logs(), st.integers(min_value=0, max_value=3))
def test_general_dag_matches_reference(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_general_dag(log, threshold=threshold, trace=fast_trace)
    ref = mine_general_dag_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert_same_mining(fast, ref, fast_trace, ref_trace)
    assert fast_trace.execution_count == len(log)
    assert fast_trace.variant_count <= fast_trace.execution_count


@given(interval_logs(), st.integers(min_value=0, max_value=2))
def test_overlapping_intervals_match_reference(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_general_dag(log, threshold=threshold, trace=fast_trace)
    ref = mine_general_dag_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert_same_mining(fast, ref, fast_trace, ref_trace)


@given(subset_logs())
def test_prepare_log_matches_reference(log):
    assert prepare_log(log) == prepare_log_reference(log)


# ---------------------------------------------------------------------------
# Algorithm 3 differentials (relabelled instances)
# ---------------------------------------------------------------------------
@given(cyclic_logs(), st.integers(min_value=0, max_value=3))
def test_cyclic_matches_reference(log, threshold):
    fast_trace, ref_trace = MiningTrace(), MiningTrace()
    fast = mine_cyclic(log, threshold=threshold, trace=fast_trace)
    ref = mine_cyclic_reference(
        log, threshold=threshold, trace=ref_trace
    )
    assert set(fast.nodes()) == set(ref.nodes())
    assert fast.edge_set() == ref.edge_set()
    assert fast_trace.pair_counts == ref_trace.pair_counts
    assert fast_trace.edges_after_step6 == ref_trace.edges_after_step6


# ---------------------------------------------------------------------------
# Incremental miner stays equivalent to the batch fast path
# ---------------------------------------------------------------------------
@given(subset_logs(max_executions=6))
def test_incremental_matches_batch_reference(log):
    miner = IncrementalMiner()
    miner.add_log(log)
    ref = mine_general_dag_reference(log)
    mined = miner.graph()
    assert set(mined.nodes()) == set(ref.nodes())
    assert mined.edge_set() == ref.edge_set()
    assert miner.execution_count == len(log)
    assert miner.variant_count <= miner.execution_count
