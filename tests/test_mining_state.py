"""Tests for :mod:`repro.core.state`: the mergeable mining state.

The load-bearing guarantee (the ISSUE's differential property): folding
executions one at a time, folding shards in any split and merging, and
batch-mining the materialized log must all produce the *identical*
graph.  The hypothesis properties below drive random logs through
random shard splits; the ``deep`` nightly profile scales the example
counts up automatically (no pinned ``max_examples``).
"""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cyclic import merge_instances, mine_cyclic
from repro.core.general_dag import mine_general_dag
from repro.core.state import MiningState, load_state, save_state
from repro.logs.event_log import EventLog
from repro.logs.execution import Execution

ACTIVITIES = [chr(ord("A") + i) for i in range(8)]


def executions_from(sequences):
    return [
        Execution.from_sequence(list(seq), execution_id=f"e{i:04d}")
        for i, seq in enumerate(sequences)
    ]


def fold_all(sequences, labelled=False):
    state = MiningState(labelled=labelled)
    for execution in executions_from(sequences):
        state.update(execution)
    return state


def graphs_equal(a, b):
    return set(a.nodes()) == set(b.nodes()) and a.edge_set() == b.edge_set()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def acyclic_sequences(draw, max_executions=12):
    """Random repetition-free sequential traces over a shared alphabet,
    with whole-trace duplicates likely (exercising variant weights)."""
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    pool_size = draw(st.integers(min_value=1, max_value=5))
    pool = []
    for _ in range(pool_size):
        k = rng.randint(1, len(ACTIVITIES))
        pool.append("".join(rng.sample(ACTIVITIES, k)))
    return [rng.choice(pool) for _ in range(m)]


@st.composite
def cyclic_sequences(draw, max_executions=8):
    """Traces that may revisit activities (Algorithm 3's setting)."""
    m = draw(st.integers(min_value=1, max_value=max_executions))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    sequences = []
    for _ in range(m):
        body = []
        for _ in range(rng.randint(1, 3)):
            body += ["L", "B"][: rng.randint(1, 2)]
        sequences.append("".join(["S"] + body + ["E"]))
    return sequences


# ---------------------------------------------------------------------------
# Fold == batch
# ---------------------------------------------------------------------------
class TestFoldMatchesBatch:
    SEQUENCES = ["ABCF", "ACDF", "ABDF", "ABCDF", "ABCF", "ACDF"]

    def test_streamed_fold_equals_batch_miner(self):
        state = fold_all(self.SEQUENCES)
        batch = mine_general_dag(
            EventLog(executions_from(self.SEQUENCES))
        )
        assert graphs_equal(state.finish(), batch)

    @pytest.mark.parametrize("threshold", [0, 1, 2, 5])
    def test_threshold_applied_at_finish(self, threshold):
        state = fold_all(self.SEQUENCES)
        batch = mine_general_dag(
            EventLog(executions_from(self.SEQUENCES)),
            threshold=threshold,
        )
        assert graphs_equal(state.finish(threshold=threshold), batch)

    def test_repeated_finish_is_stable(self):
        # finish() must be side-effect-free on the accumulator (the
        # step-5 reduction memo persists between calls but never leaks
        # into results).
        state = fold_all(self.SEQUENCES)
        first = state.finish()
        second = state.finish()
        assert graphs_equal(first, second)
        state.update(Execution.from_sequence(list("AF"), "late"))
        assert graphs_equal(
            state.finish(),
            mine_general_dag(
                EventLog(executions_from(self.SEQUENCES + ["AF"]))
            ),
        )

    @given(acyclic_sequences())
    def test_fold_equals_batch_on_random_logs(self, sequences):
        state = fold_all(sequences)
        batch = mine_general_dag(EventLog(executions_from(sequences)))
        assert graphs_equal(state.finish(), batch)


# ---------------------------------------------------------------------------
# Merge algebra
# ---------------------------------------------------------------------------
class TestMergeAlgebra:
    @given(
        acyclic_sequences(),
        st.lists(st.integers(min_value=0, max_value=2), min_size=0),
    )
    def test_any_shard_split_merges_to_the_batch_graph(
        self, sequences, assignment
    ):
        """Fold shards under a random 3-way split, merge, finish —
        identical graph and identical canonical payload to one fold."""
        shards = [MiningState(), MiningState(), MiningState()]
        for index, execution in enumerate(executions_from(sequences)):
            shard = assignment[index % len(assignment)] if assignment else 0
            shards[shard].update(execution)
        merged = shards[1]
        merged.merge(shards[2])
        merged.merge(shards[0])
        single = fold_all(sequences)
        assert merged.to_payload() == single.to_payload()
        assert graphs_equal(
            merged.finish(),
            mine_general_dag(EventLog(executions_from(sequences))),
        )

    @given(acyclic_sequences(), acyclic_sequences(), acyclic_sequences())
    def test_merge_is_associative_and_commutative(self, sa, sb, sc):
        """(A + B) + C == A + (B + C) == (C + B) + A, by canonical
        payload — byte-level equality, stronger than graph equality."""
        def build(seqs, offset):
            state = MiningState()
            for i, seq in enumerate(seqs):
                state.update(
                    Execution.from_sequence(
                        list(seq), execution_id=f"x{offset}-{i:03d}"
                    )
                )
            return state

        left = build(sa, 0).merge(build(sb, 1)).merge(build(sc, 2))
        right_inner = build(sb, 1).merge(build(sc, 2))
        right = build(sa, 0).merge(right_inner)
        flipped = build(sc, 2).merge(build(sb, 1)).merge(build(sa, 0))
        assert left.to_payload() == right.to_payload()
        assert left.to_payload() == flipped.to_payload()

    def test_merge_relabels_across_disjoint_alphabets(self):
        # Shards interned different label sets; merge must remap codes,
        # not assume a shared table.
        a = fold_all(["ABC", "AC"])
        b = fold_all(["XYZ", "XZ"])
        a.merge(b)
        batch = mine_general_dag(
            EventLog(executions_from(["ABC", "AC", "XYZ", "XZ"]))
        )
        assert graphs_equal(a.finish(), batch)

    def test_merge_with_empty_state_is_identity(self):
        state = fold_all(["ABCF", "ACDF"])
        before = state.to_payload()
        state.merge(MiningState())
        assert state.to_payload() == before

    def test_merge_rejects_mixed_labelled_flags(self):
        with pytest.raises(ValueError):
            MiningState(labelled=False).merge(MiningState(labelled=True))


# ---------------------------------------------------------------------------
# Labelled (cyclic) states
# ---------------------------------------------------------------------------
class TestLabelledState:
    @given(cyclic_sequences())
    def test_labelled_fold_matches_mine_cyclic(self, sequences):
        state = fold_all(sequences, labelled=True)
        log = EventLog(executions_from(sequences))
        mined = merge_instances(state.finish())
        assert graphs_equal(mined, mine_cyclic(log))

    def test_has_repetition_detects_revisits(self):
        assert not fold_all(
            ["ABC", "AC"], labelled=True
        ).has_repetition()
        assert fold_all(["ABAC"], labelled=True).has_repetition()

    def test_to_plain_projects_repetition_free_states(self):
        labelled = fold_all(["ABCF", "ACDF", "ABCF"], labelled=True)
        plain = labelled.to_plain()
        assert plain.to_payload() == fold_all(
            ["ABCF", "ACDF", "ABCF"]
        ).to_payload()

    def test_to_plain_rejects_repetition(self):
        with pytest.raises(ValueError):
            fold_all(["ABAB"], labelled=True).to_plain()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
class TestStatePersistence:
    def test_save_load_round_trip(self, tmp_path):
        state = fold_all(["ABCF", "ACDF", "ABCF"])
        path = tmp_path / "shard.state"
        save_state(state, path, threshold=2)
        loaded, meta = load_state(path)
        assert loaded.to_payload() == state.to_payload()
        assert meta["mode"] == "general-dag"
        assert meta["threshold"] == 2
        assert meta["version"] == 3

    def test_payload_is_canonical_across_ingest_orders(self):
        forward = fold_all(["ABCF", "ACDF", "ABDF"])
        backward = fold_all(["ABDF", "ACDF", "ABCF"])
        assert json.dumps(forward.to_payload(), sort_keys=True) == (
            json.dumps(backward.to_payload(), sort_keys=True)
        )

    def test_from_payload_round_trip(self):
        state = fold_all(["ABCF", "ACDF"])
        clone = MiningState.from_payload(state.to_payload())
        assert clone.to_payload() == state.to_payload()
        assert graphs_equal(clone.finish(), state.finish())

    def test_saved_labelled_state_resumes_as_cyclic(self, tmp_path):
        state = fold_all(["ABAB"], labelled=True)
        path = tmp_path / "cyc.state"
        save_state(state, path)
        loaded, meta = load_state(path)
        assert meta["mode"] == "cyclic"
        assert loaded.labelled
        assert loaded.has_repetition()
