"""Differential tests for the incremental :meth:`MiningState.finish`.

A state that is finished, folded into and finished again reuses its
step-4 cache, its step-5 cursor and, when nothing new was folded, its
last graph.  Every one of those finishes must be the graph a *cold*
finish produces — the same state rebuilt from :meth:`to_payload`, whose
kernel state starts empty — down to node and edge order, and at
threshold 0 the graph of the naive reference pipeline.

The random interleavings below mix what makes the caches move: new
labels that outgrow the packing capacity (a repack), reversed orders
that turn an edge into a 2-cycle or fold it into a strongly connected
component (the step-5 cursor must start over), overlapping intervals,
repeated activities, and the thresholds 0, 1 and 3.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cyclic import merge_instances
from repro.core.general_dag import MiningTrace
from repro.core.reference import (
    mine_cyclic_reference,
    mine_general_dag_reference,
)
from repro.core.state import MiningState
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution

#: Twelve labels: more than the initial capacity of eight, so a long
#: enough interleaving repacks between two finishes.
ALPHABET = [chr(ord("A") + i) for i in range(12)]


def random_execution(rng, index, width):
    """One execution over the first ``width`` labels, of a random shape."""
    activities = ALPHABET[:width]
    execution_id = f"e{index:04d}"
    shape = rng.random()
    if shape < 0.6:
        chosen = [a for a in activities if rng.random() < 0.6]
        rng.shuffle(chosen)
        return Execution.from_sequence(
            ["S", *chosen, "Z"], execution_id=execution_id
        )
    if shape < 0.8:
        body = [rng.choice(activities) for _ in range(rng.randint(1, 5))]
        return Execution.from_sequence(
            ["S", *body, "Z"], execution_id=execution_id
        )
    records = []
    for activity in [a for a in activities if rng.random() < 0.5] or [
        activities[0]
    ]:
        start = rng.randint(0, 12)
        end = start + rng.randint(1, 4)
        records.append(start_event(execution_id, activity, start))
        records.append(end_event(execution_id, activity, end))
    return Execution(execution_id, records)


@st.composite
def interleavings(draw):
    """``(steps, seed)``: ``("fold", k)`` / ``("finish", threshold)``."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("fold"), st.integers(min_value=1, max_value=6)
                ),
                st.tuples(st.just("finish"), st.sampled_from([0, 1, 3])),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return steps, draw(st.integers(min_value=0, max_value=10_000))


def cold_finish(state, threshold):
    rebuilt = MiningState.from_payload(state.to_payload())
    return rebuilt.finish(threshold=threshold)


def assert_same_graph(warm, cold):
    assert list(warm.nodes()) == list(cold.nodes())
    assert list(warm.edges()) == list(cold.edges())


def run_interleaving(steps, seed, labelled):
    rng = random.Random(seed)
    state = MiningState(labelled=labelled)
    folded = []
    for action, amount in steps + [("finish", 0)]:
        if action == "fold":
            for _ in range(amount):
                # The alphabet widens as the log grows: new labels
                # arrive between finishes and eventually force a repack.
                width = min(len(ALPHABET), 3 + len(folded) // 2)
                execution = random_execution(rng, len(folded), width)
                folded.append(execution)
                state.update(execution)
            continue
        if not folded:
            continue
        graph = state.finish(threshold=amount)
        assert_same_graph(graph, cold_finish(state, amount))
        if amount == 0:
            log = EventLog(list(folded))
            if labelled:
                reference = mine_cyclic_reference(log)
                merged = merge_instances(graph)
                assert set(merged.nodes()) == set(reference.nodes())
                assert merged.edge_set() == reference.edge_set()
            else:
                reference = mine_general_dag_reference(log)
                assert set(graph.nodes()) == set(reference.nodes())
                assert graph.edge_set() == reference.edge_set()


@given(interleavings())
@settings(max_examples=60, deadline=None)
def test_plain_incremental_finish_matches_cold_finish(case):
    steps, seed = case
    run_interleaving(steps, seed, labelled=False)


@given(interleavings())
@settings(max_examples=60, deadline=None)
def test_labelled_incremental_finish_matches_cold_finish(case):
    steps, seed = case
    run_interleaving(steps, seed, labelled=True)


def test_new_two_cycle_resets_the_cursor():
    """An edge that becomes a 2-cycle changes step 4: step 5 starts over."""
    state = MiningState()
    for sequence in ["SABZ", "SACZ", "SABCZ"]:
        state.update(Execution.from_sequence(sequence))
    state.finish()
    assert state._kernel_state.cursor == state.variant_count
    state.update(Execution.from_sequence("SCBZ"))  # B, C now a 2-cycle
    trace = MiningTrace()
    graph = state.finish(trace=trace)
    assert trace.reduction_cache_misses + trace.reduction_cache_hits == 4
    assert trace.reduction_cache_misses > 1
    assert not graph.has_edge("B", "C") and not graph.has_edge("C", "B")
    assert_same_graph(graph, cold_finish(state, 0))


def test_new_variant_on_unchanged_edges_reduces_only_itself():
    state = MiningState()
    for sequence in ["SABCZ", "SACBZ", "SADZ", "SBDZ"]:
        state.update(Execution.from_sequence(sequence))
    state.finish()
    state.update(Execution.from_sequence("SABDZ"))  # no new pair
    trace = MiningTrace()
    graph = state.finish(trace=trace)
    assert trace.reduction_cache_hits == 4
    assert trace.reduction_cache_misses + (
        trace.reduction_cache_prefix_extends
    ) == 1
    assert_same_graph(graph, cold_finish(state, 0))


def test_unchanged_finish_returns_an_independent_graph():
    state = MiningState()
    for sequence in ["SABZ", "SACZ"]:
        state.update(Execution.from_sequence(sequence))
    first = state.finish()
    first.add_edge("B", "C")
    again = state.finish()
    assert not again.has_edge("B", "C")
    assert_same_graph(again, cold_finish(state, 0))
