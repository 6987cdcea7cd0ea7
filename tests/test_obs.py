"""Unit tests for :mod:`repro.obs` — recorders, metrics, exporters."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    FORMATS,
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    ObsRecorder,
    RunManifest,
    parse_jsonl,
    parse_prometheus,
    render,
    render_jsonl,
    render_prometheus,
    render_text,
    resolve_recorder,
    write_manifest,
)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.get("hits").value == 5

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"kind": "a"}).inc()
        registry.counter("hits", {"kind": "b"}).inc(2)
        assert registry.get("hits", {"kind": "a"}).value == 1
        assert registry.get("hits", {"kind": "b"}).value == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"a": "1", "b": "2"}).inc()
        registry.counter("hits", {"b": "2", "a": "1"}).inc()
        assert registry.get("hits", {"b": "2", "a": "1"}).value == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_gauge_last_set_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7)
        assert registry.get("depth").value == 7

    def test_histogram_sum_count_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(15.0)
        # Non-cumulative per-bucket counts; 10.0 only in +Inf overflow.
        assert hist.bucket_counts == [1, 1, 1]

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.counter("a_total").inc()
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        names = [sample["name"] for sample in snapshot]
        assert names == sorted(names)
        json.dumps(snapshot)  # must not raise


# ---------------------------------------------------------------------------
# ObsRecorder spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_parent_and_depth(self):
        recorder = ObsRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("sibling"):
                pass
        spans = {span.name: span for span in recorder.spans}
        assert recorder.span_names() == ["outer", "inner", "sibling"]
        assert spans["outer"].parent is None
        assert spans["outer"].depth == 0
        assert spans["inner"].parent == spans["outer"].index
        assert spans["inner"].depth == 1
        assert spans["sibling"].parent == spans["outer"].index

    def test_spans_in_start_order_with_indices(self):
        recorder = ObsRecorder()
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        assert [span.index for span in recorder.spans] == [0, 1]

    def test_timings_non_negative_and_outer_covers_inner(self):
        recorder = ObsRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                sum(range(1000))
        outer, inner = recorder.spans
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.cpu_seconds >= 0.0

    def test_annotate_attaches_attrs(self):
        recorder = ObsRecorder()
        with recorder.span("stage", fixed="yes") as span:
            span.annotate(edges=12)
        (finished,) = recorder.spans
        assert finished.attrs == {"fixed": "yes", "edges": 12}

    def test_open_spans_excluded(self):
        recorder = ObsRecorder()
        with recorder.span("open"):
            assert recorder.spans == []

    def test_metric_shorthands(self):
        recorder = ObsRecorder()
        recorder.count("c", 2)
        recorder.gauge("g", 7)
        recorder.observe("h", 0.25)
        assert recorder.registry.get("c").value == 2
        assert recorder.registry.get("g").value == 7
        assert recorder.registry.get("h").count == 1


# ---------------------------------------------------------------------------
# NullRecorder — the disabled fast path
# ---------------------------------------------------------------------------
class TestNullRecorder:
    def test_disabled_and_singletonish(self):
        assert NULL_RECORDER.enabled is False
        assert resolve_recorder(None) is NULL_RECORDER
        recorder = ObsRecorder()
        assert resolve_recorder(recorder) is recorder

    def test_span_returns_shared_singleton(self):
        first = NULL_RECORDER.span("a", attr=1)
        second = NULL_RECORDER.span("b")
        assert first is second  # no allocation per call

    def test_span_is_reentrant_noop(self):
        with NULL_RECORDER.span("x") as span:
            span.annotate(ignored=True)
            with NULL_RECORDER.span("y"):
                pass
        assert NULL_RECORDER.spans == []
        assert NULL_RECORDER.span_names() == []

    def test_metric_calls_are_noops(self):
        NULL_RECORDER.count("c")
        NULL_RECORDER.gauge("g", 1)
        NULL_RECORDER.observe("h", 0.5)
        assert NULL_RECORDER.registry is None

    def test_no_per_instance_state(self):
        assert NullRecorder.__slots__ == ()
        with pytest.raises(AttributeError):
            NullRecorder().something = 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _sample_manifest():
    recorder = ObsRecorder()
    with recorder.span("mine", algorithm="general-dag"):
        with recorder.span("mine/prepare"):
            pass
    recorder.count("repro_mine_executions_total", 60)
    recorder.count(
        "repro_mine_edges_dropped_total", 2, labels={"cause": "threshold"}
    )
    recorder.gauge("repro_mine_edges", 24, labels={"stage": "step6"})
    recorder.observe("repro_service_snapshot_seconds", 0.002)
    return RunManifest.collect(
        recorder, command="mine", config={"threshold": 0}
    )


class TestExporters:
    def test_jsonl_round_trip(self):
        manifest = _sample_manifest()
        grouped = parse_jsonl(render_jsonl(manifest))
        assert len(grouped["manifest"]) == 1
        assert grouped["manifest"][0]["command"] == "mine"
        assert [record["name"] for record in grouped["span"]] == [
            "mine",
            "mine/prepare",
        ]
        metric_names = {record["name"] for record in grouped["metric"]}
        assert "repro_mine_executions_total" in metric_names

    def test_jsonl_rejects_unknown_record_type(self):
        with pytest.raises(ValueError):
            parse_jsonl('{"type": "mystery"}\n')

    def test_prometheus_round_trip(self):
        manifest = _sample_manifest()
        text = render_prometheus(manifest)
        samples = parse_prometheus(text)
        assert samples[("repro_mine_executions_total", ())] == 60
        assert (
            samples[
                (
                    "repro_mine_edges_dropped_total",
                    (("cause", "threshold"),),
                )
            ]
            == 2
        )
        span_stages = {
            dict(labels)["stage"]
            for name, labels in samples
            if name == "repro_span_seconds"
        }
        assert span_stages == {"mine", "mine/prepare"}

    def test_prometheus_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        for value in (0.5, 0.7, 1.5, 9.0):
            hist.observe(value)
        recorder = ObsRecorder(registry)
        manifest = RunManifest.collect(recorder, command="t")
        samples = parse_prometheus(render_prometheus(manifest))
        assert samples[("lat_bucket", (("le", "1.0"),))] == 2
        assert samples[("lat_bucket", (("le", "2.0"),))] == 3
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 4
        assert samples[("lat_count", ())] == 4
        assert samples[("lat_sum", ())] == pytest.approx(11.7)

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", {"path": 'a"b\\c\nd'}).inc()
        recorder = ObsRecorder(registry)
        manifest = RunManifest.collect(recorder, command="t")
        samples = parse_prometheus(render_prometheus(manifest))
        assert samples[("c", (("path", 'a"b\\c\nd'),))] == 1

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all!\n")

    def test_text_render_shows_stages_and_metrics(self):
        text = render_text(_sample_manifest())
        assert "mine/prepare" in text
        assert "repro_mine_executions_total" in text
        assert "config.threshold: 0" in text

    def test_render_dispatch_and_unknown_format(self):
        manifest = _sample_manifest()
        for fmt in FORMATS:
            assert render(manifest, fmt)
        with pytest.raises(ValueError):
            render(manifest, "xml")

    def test_write_manifest(self, tmp_path):
        path = write_manifest(
            _sample_manifest(), tmp_path / "run.jsonl", "jsonl"
        )
        grouped = parse_jsonl(path.read_text())
        assert grouped["manifest"][0]["version"] == 1

    def test_exports_agree_on_counter_values(self):
        """All renderers draw from one snapshot; spot-check agreement."""
        manifest = _sample_manifest()
        grouped = parse_jsonl(render_jsonl(manifest))
        jsonl_value = next(
            record["value"]
            for record in grouped["metric"]
            if record["name"] == "repro_mine_executions_total"
        )
        prom_value = parse_prometheus(render_prometheus(manifest))[
            ("repro_mine_executions_total", ())
        ]
        assert jsonl_value == prom_value == 60


# ---------------------------------------------------------------------------
# Manifest identity fields
# ---------------------------------------------------------------------------
class TestManifest:
    def test_input_digest_and_stage_names(self, tmp_path):
        data = tmp_path / "input.log"
        data.write_text("hello\n")
        recorder = ObsRecorder()
        with recorder.span("ingest"):
            pass
        manifest = RunManifest.collect(
            recorder, command="mine", input_path=data
        )
        assert manifest.input_digest is not None
        assert manifest.input_digest.startswith("sha256:")
        assert manifest.stage_names() == ["ingest"]

    def test_missing_input_degrades_to_none(self, tmp_path):
        manifest = RunManifest.collect(
            ObsRecorder(),
            command="mine",
            input_path=tmp_path / "vanished.log",
        )
        assert manifest.input_digest is None

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
