"""Tests for the decision-stump baseline and edge-coverage analysis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.coverage import CoverageReport, EdgeUsage, edge_coverage
from repro.classifier.dataset import Dataset
from repro.classifier.stump import DecisionStump
from repro.classifier.tree import DecisionTree
from repro.core.cyclic import mine_cyclic
from repro.datasets.cyclic import CyclicTraceGenerator
from repro.errors import CycleError, TrainingDataError
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import transitive_reduction_edges
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution
from repro.model.conditions import Always, Never


class TestDecisionStump:
    def test_learns_single_threshold(self):
        data = Dataset.from_pairs(
            [((float(i),), i > 10) for i in range(21)]
        )
        stump = DecisionStump.fit(data)
        assert stump.accuracy(data) == 1.0
        assert stump.predict((15.0,)) is True
        assert stump.predict((5.0,)) is False

    def test_polarity_inversion(self):
        # Positive class on the LOW side of the split.
        data = Dataset.from_pairs(
            [((float(i),), i <= 10) for i in range(21)]
        )
        stump = DecisionStump.fit(data)
        assert stump.accuracy(data) == 1.0
        assert stump.predict((3.0,)) is True

    def test_constant_fallback(self):
        data = Dataset.from_pairs([((1.0,), True), ((1.0,), True)])
        stump = DecisionStump.fit(data)
        assert stump.constant is True
        assert stump.predict((99.0,)) is True
        assert isinstance(stump.to_condition(), Always)

    def test_constant_negative(self):
        data = Dataset.from_pairs([((1.0,), False), ((1.0,), False)])
        assert isinstance(
            DecisionStump.fit(data).to_condition(), Never
        )

    def test_empty_rejected(self):
        with pytest.raises(TrainingDataError):
            DecisionStump.fit(Dataset([]))

    def test_condition_matches_predictions(self):
        data = Dataset.from_pairs(
            [((float(i), 0.0), i > 7) for i in range(15)]
        )
        stump = DecisionStump.fit(data)
        condition = stump.to_condition()
        for i in range(15):
            point = (float(i), 0.0)
            assert condition.evaluate(point) == stump.predict(point)

    def test_loses_to_tree_on_conjunctions(self):
        # Example 1's shape: a conjunction of two thresholds.  The
        # stump cannot represent it; the tree can.
        data = Dataset.from_pairs(
            [
                ((float(x), float(y)), x > 5 and y > 5)
                for x in range(11)
                for y in range(11)
            ]
        )
        stump = DecisionStump.fit(data)
        tree = DecisionTree.fit(data)
        assert tree.accuracy(data) == 1.0
        assert stump.accuracy(data) < 1.0

    def test_matches_tree_on_single_thresholds(self):
        data = Dataset.from_pairs(
            [((float(i), 3.0), i >= 12) for i in range(25)]
        )
        stump = DecisionStump.fit(data)
        tree = DecisionTree.fit(data)
        assert stump.accuracy(data) == tree.accuracy(data) == 1.0


class TestEdgeCoverage:
    def diamond(self):
        return DiGraph(
            edges=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
                   ("A", "D")]
        )

    def test_full_coverage_of_exercised_edges(self):
        graph = DiGraph(edges=[("A", "B"), ("B", "C")])
        log = EventLog.from_sequences(["ABC"] * 5)
        report = edge_coverage(graph, log)
        assert report.coverage == 1.0
        assert report.usage[("A", "B")].required == 5
        assert report.unexercised() == []

    def test_shortcut_edge_required_only_when_needed(self):
        graph = self.diamond()
        log = EventLog.from_sequences(["ABD", "ACD", "ABCD"])
        report = edge_coverage(graph, log)
        # A->D is compatible everywhere but never required (some
        # interior path always present).
        usage = report.usage[("A", "D")]
        assert usage.compatible == 3
        assert usage.required == 0
        assert ("A", "D") in report.unexercised()

    def test_shortcut_required_when_interior_skipped(self):
        graph = self.diamond()
        log = EventLog.from_sequences(["ABD", "AD"])
        report = edge_coverage(graph, log)
        assert report.usage[("A", "D")].required == 1

    def test_unperformed_endpoints_are_zero(self):
        graph = DiGraph(edges=[("A", "B"), ("X", "Y")])
        log = EventLog.from_sequences(["AB"] * 3)
        report = edge_coverage(graph, log)
        usage = report.usage[("X", "Y")]
        assert usage.co_present == usage.compatible == usage.required == 0

    def test_report_text(self):
        graph = DiGraph(edges=[("A", "B")])
        log = EventLog.from_sequences(["AB"])
        text = edge_coverage(graph, log).report()
        assert "edge coverage: 1/1" in text
        assert "A -> B" in text

    def test_coverage_of_edgeless_graph(self):
        graph = DiGraph(nodes=["A"])
        log = EventLog.from_sequences(["A"])
        assert edge_coverage(graph, log).coverage == 1.0

    def test_empty_log_rejected(self):
        from repro.errors import EmptyLogError

        with pytest.raises(EmptyLogError):
            edge_coverage(DiGraph(), EventLog())


def naive_edge_coverage(graph, log):
    """The original per-execution loop over every model edge (oracle)."""
    log.require_non_empty()
    edge_set = graph.edge_set()
    required = {edge: 0 for edge in edge_set}
    compatible = {edge: 0 for edge in edge_set}
    co_present = {edge: 0 for edge in edge_set}

    for execution in log:
        activities = execution.activities
        pairs = set(execution.ordered_pairs())
        induced_edges = pairs & edge_set
        needed = transitive_reduction_edges(
            DiGraph(nodes=activities, edges=induced_edges)
        )
        for edge in edge_set:
            source, target = edge
            if source in activities and target in activities:
                co_present[edge] += 1
            if edge in pairs:
                compatible[edge] += 1
            if edge in needed:
                required[edge] += 1

    usage = {
        edge: EdgeUsage(
            required=required[edge],
            compatible=compatible[edge],
            co_present=co_present[edge],
        )
        for edge in edge_set
    }
    return CoverageReport(usage=usage, executions=len(log))


#: Model vertices: X and Y are never performed by the generated logs.
MODEL_NODES = "ABCDEFXY"
#: Log activities: G and H are absent from every generated model.
LOG_ACTIVITIES = "ABCDEFGH"


@st.composite
def dag_models(draw):
    """A random DAG over a shuffled subset of ``MODEL_NODES``."""
    nodes = draw(
        st.lists(st.sampled_from(MODEL_NODES), unique=True, max_size=8)
    )
    edges = [
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if draw(st.booleans())
    ]
    return DiGraph(nodes=nodes, edges=edges)


@st.composite
def any_models(draw):
    """A random digraph over ``MODEL_NODES``, cycles allowed."""
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(MODEL_NODES), st.sampled_from(MODEL_NODES)
            ).filter(lambda edge: edge[0] != edge[1]),
            max_size=16,
        )
    )
    return DiGraph(edges=edges)


@st.composite
def interval_logs(draw):
    """Executions of timed instances: overlaps and repeats both occur."""
    executions = []
    for number in range(draw(st.integers(1, 6))):
        run = f"run-{number}"
        records = []
        for activity, start, duration in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(LOG_ACTIVITIES),
                    st.integers(0, 12),
                    st.integers(1, 4),
                ),
                min_size=1,
                max_size=8,
            )
        ):
            records.append(start_event(run, activity, float(start)))
            records.append(
                end_event(run, activity, float(start + duration))
            )
        executions.append(Execution(run, records))
    return EventLog(executions)


sequence_logs = st.lists(
    st.text(alphabet=LOG_ACTIVITIES, min_size=1, max_size=9),
    min_size=1,
    max_size=6,
).map(EventLog.from_sequences)


def _outcome(coverage, graph, log):
    try:
        return coverage(graph, log)
    except CycleError:
        return CycleError


def rework_log(executions=40):
    """The rework log of ``examples/cyclic_processes.py``."""
    truth = DiGraph(
        edges=[
            ("Submit", "Build"),
            ("Build", "Test"),
            ("Test", "Repair"),
            ("Repair", "Build"),
            ("Test", "Release"),
        ]
    )
    generator = CyclicTraceGenerator(
        truth, loop_probability=0.45, max_loop_iterations=2, seed=13
    )
    return generator.generate(executions, process_name="rework")


class TestEdgeCoverageDifferential:
    """The sparse pass agrees with the per-edge loop it replaced."""

    @given(dag_models(), sequence_logs)
    def test_dag_models_sequence_logs(self, graph, log):
        assert edge_coverage(graph, log) == naive_edge_coverage(graph, log)

    @given(dag_models(), interval_logs())
    def test_dag_models_overlapping_logs(self, graph, log):
        assert edge_coverage(graph, log) == naive_edge_coverage(graph, log)

    @given(any_models(), st.one_of(sequence_logs, interval_logs()))
    def test_cyclic_models_raise_exactly_when_oracle_does(self, graph, log):
        assert _outcome(edge_coverage, graph, log) == _outcome(
            naive_edge_coverage, graph, log
        )

    def test_algorithm3_rework_model_raises(self):
        log = rework_log()
        graph = mine_cyclic(log)
        assert graph.has_edge("Repair", "Build")
        with pytest.raises(CycleError):
            naive_edge_coverage(graph, log)
        with pytest.raises(CycleError):
            edge_coverage(graph, log)

    def test_leaves_no_ordered_pair_cache(self):
        graph = mine_cyclic(rework_log())
        acyclic = DiGraph(
            nodes=graph.nodes(),
            edges=[e for e in graph.edges() if e != ("Repair", "Build")],
        )
        log = rework_log()
        edge_coverage(acyclic, log)
        for execution in log:
            assert execution._ordered_set is None
            assert execution._labelled_ordered_set is None
