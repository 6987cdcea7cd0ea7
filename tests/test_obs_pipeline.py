"""Integration tests: the pipeline's :mod:`repro.obs` instrumentation.

Each subsystem that takes a recorder is exercised with a real
:class:`ObsRecorder` and checked for the stable span names and metric
series documented in ``docs/OBSERVABILITY.md`` — and for identical
behaviour under the default :data:`NULL_RECORDER`.
"""

from collections import Counter as TallyCounter


from repro.core.conditions import ConditionsMiner
from repro.core.general_dag import MiningTrace, mine_general_dag
from repro.core.incremental import IncrementalMiner
from repro.core.miner import ALGORITHM_GENERAL, ProcessMiner
from repro.core.special_dag import mine_special_dag
from repro.datasets.examples import example6_log, example7_log
from repro.engine.simulator import SimulationConfig, WorkflowSimulator
from repro.lint.engine import lint_model
from repro.logs.ingest import IngestReport, publish_ingest_report
from repro.model.builder import ProcessBuilder
from repro.model.conditions import attr_gt, attr_le
from repro.obs import NULL_RECORDER, ObsRecorder


def _branching_log():
    """200 simulated executions of a branching model with outputs."""
    model = (
        ProcessBuilder("branch")
        .edge("A", "High", condition=attr_gt(0, 50))
        .edge("A", "Low", condition=attr_le(0, 50))
        .edge("High", "Z")
        .edge("Low", "Z")
        .build()
    )
    simulator = WorkflowSimulator(model, SimulationConfig(seed=11))
    return simulator.run_log(200)


def _counter(recorder, name, labels=None):
    metric = recorder.registry.get(name, labels)
    return metric.value if metric is not None else None


class TestMinerInstrumentation:
    def test_general_dag_stage_spans_and_counters(self):
        log = example7_log()
        recorder = ObsRecorder()
        result = ProcessMiner(recorder=recorder).mine(log)
        assert result.algorithm == ALGORITHM_GENERAL
        names = recorder.span_names()
        for stage in (
            "mine",
            "mine/prepare",
            "mine/step2_counters",
            "mine/step3_filters",
            "mine/step4_scc",
            "mine/step5_reduce",
            "mine/step6_assemble",
        ):
            assert stage in names, f"missing span {stage}"
        assert _counter(recorder, "repro_mine_executions_total") == len(log)
        variants = _counter(recorder, "repro_mine_variants_total")
        assert 0 < variants <= len(log)
        assert _counter(recorder, "repro_mine_pairs_extracted_total") > 0
        edges = recorder.registry.get(
            "repro_mine_edges", {"stage": "step6"}
        )
        assert edges.value == result.graph.edge_count

    def test_stage_spans_nest_under_mine(self):
        """Span nesting mirrors the span-name path: ``mine/x`` is a
        child of ``mine``, ``mine/prepare/parse`` of ``mine/prepare``."""
        recorder = ObsRecorder()
        ProcessMiner(recorder=recorder).mine(example7_log())
        spans = {span.name: span for span in recorder.spans}
        assert "mine" in spans
        for name, span in spans.items():
            if name.startswith("mine/"):
                parent_name = name.rsplit("/", 1)[0]
                assert span.parent == spans[parent_name].index

    def test_special_dag_records_spans(self):
        recorder = ObsRecorder()
        graph = mine_special_dag(example6_log(), recorder=recorder)
        names = recorder.span_names()
        assert "mine/prepare" in names
        assert "mine/step6_assemble" in names
        edges = recorder.registry.get(
            "repro_mine_edges", {"stage": "step6"}
        )
        assert edges.value == graph.edge_count

    def test_mining_trace_timings_match_spans(self):
        """MiningTrace.timings stays a thin façade over the spans."""
        recorder = ObsRecorder()
        trace = MiningTrace(recorder=recorder)
        mine_general_dag(example7_log(), trace=trace)
        span_stages = {
            span.name.removeprefix("mine/")
            for span in recorder.spans
            if span.name.startswith("mine/")
        }
        assert set(trace.timings) <= span_stages

    def test_null_recorder_identical_graph(self):
        log = example7_log()
        with_obs = ProcessMiner(recorder=ObsRecorder()).mine(log)
        without = ProcessMiner().mine(log)
        assert with_obs.graph.edge_set() == without.graph.edge_set()


class TestIngestInstrumentation:
    def test_report_mirrors_into_counters(self):
        report = IngestReport(
            accepted_executions=10,
            accepted_records=42,
            repaired_executions=2,
            repairs=TallyCounter({"fill_end_time": 2}),
            quarantined_lines=3,
            quarantined_executions=1,
            reasons=TallyCounter({"bad_timestamp": 3, "orphan": 1}),
        )
        recorder = ObsRecorder()
        publish_ingest_report(report, recorder)
        assert (
            _counter(recorder, "repro_ingest_executions_accepted_total")
            == 10
        )
        assert (
            _counter(recorder, "repro_ingest_records_accepted_total") == 42
        )
        assert (
            _counter(
                recorder,
                "repro_ingest_repairs_total",
                {"rule": "fill_end_time"},
            )
            == 2
        )
        assert (
            _counter(
                recorder,
                "repro_ingest_quarantined_total",
                {"kind": "line"},
            )
            == 3
        )
        assert (
            _counter(
                recorder,
                "repro_ingest_quarantine_reasons_total",
                {"reason": "orphan"},
            )
            == 1
        )

    def test_null_recorder_is_noop(self):
        publish_ingest_report(IngestReport(), NULL_RECORDER)


class TestIncrementalInstrumentation:
    def test_checkpoint_gauges(self, tmp_path):
        recorder = ObsRecorder()
        miner = IncrementalMiner(recorder=recorder)
        miner.add_log(example7_log())
        miner.graph()
        path = tmp_path / "state.ckpt"
        miner.checkpoint(path)
        assert "incremental/materialize" in recorder.span_names()
        assert "incremental/checkpoint" in recorder.span_names()
        size = recorder.registry.get("repro_checkpoint_bytes")
        assert size.value == path.stat().st_size
        assert recorder.registry.get(
            "repro_checkpoint_executions"
        ).value == len(example7_log())

    def test_resume_records_age(self, tmp_path):
        path = tmp_path / "state.ckpt"
        first = IncrementalMiner()
        first.add_log(example7_log())
        first.checkpoint(path)
        recorder = ObsRecorder()
        resumed = IncrementalMiner.resume(path, recorder=recorder)
        age = recorder.registry.get("repro_checkpoint_age_seconds")
        assert age.value >= 0.0
        assert recorder.registry.get(
            "repro_checkpoint_bytes"
        ).value == path.stat().st_size
        assert resumed.graph().edge_count > 0


class TestConditionsInstrumentation:
    def test_tree_metrics_recorded(self):
        log = _branching_log()
        graph = mine_general_dag(log)
        recorder = ObsRecorder()
        mined = ConditionsMiner(pairwise=True).mine(
            log, graph, recorder=recorder
        )
        assert _counter(recorder, "repro_conditions_edges_total") == len(
            mined
        )
        learnable = _counter(recorder, "repro_conditions_learnable_total")
        assert learnable == sum(
            1 for condition in mined.values() if condition.learnable
        )
        depth = recorder.registry.get("repro_conditions_tree_depth")
        if depth is not None:  # only present when a tree was fit
            assert depth.count >= 1


class TestLintInstrumentation:
    def test_findings_by_severity(self):
        model = (
            ProcessBuilder("demo")
            .chain("A", "B", "C")
            .edge("A", "C")
            .build()
        )
        recorder = ObsRecorder()
        report = lint_model(model, recorder=recorder)
        assert "lint" in recorder.span_names()
        assert _counter(
            recorder, "repro_lint_rules_checked_total"
        ) == len(report.checked_rules)
        for severity in ("error", "warning", "info"):
            value = _counter(
                recorder,
                "repro_lint_findings_total",
                {"severity": severity},
            )
            assert value is not None and value >= 0

    def test_recorder_does_not_change_report(self):
        model = ProcessBuilder("demo").chain("A", "B").build()
        plain = lint_model(model)
        observed = lint_model(model, recorder=ObsRecorder())
        assert [d.code for d in plain.diagnostics] == [
            d.code for d in observed.diagnostics
        ]


class TestConditionsViaFacade:
    def test_miner_facade_conditions_span(self):
        log = _branching_log()
        recorder = ObsRecorder()
        miner = ProcessMiner(learn_conditions=True, recorder=recorder)
        result = miner.mine(log)
        assert result.conditions is not None
        assert "conditions" in recorder.span_names()
