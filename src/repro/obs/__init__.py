"""``repro.obs`` — dependency-free observability for the mining pipeline.

Layers
------
:mod:`repro.obs.metrics`
    Typed counters/gauges/histograms in a per-run
    :class:`~repro.obs.metrics.MetricsRegistry` with deterministic
    registry merging.
:mod:`repro.obs.recorder`
    Hierarchical spans (wall + CPU time) via
    :class:`~repro.obs.recorder.ObsRecorder`, and the disabled-by-default
    :class:`~repro.obs.recorder.NullRecorder` fast path
    (:data:`~repro.obs.recorder.NULL_RECORDER`).
:mod:`repro.obs.manifest`
    The :class:`~repro.obs.manifest.RunManifest` tying input digest,
    config, environment and git SHA to the observed spans and metrics.
:mod:`repro.obs.export`
    JSONL trace events, Prometheus text exposition, and a human summary
    table, all rendered from one manifest.

The stable metric and span catalogue lives in ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    FORMAT_JSONL,
    FORMAT_PROM,
    FORMAT_TEXT,
    FORMATS,
    parse_jsonl,
    parse_prometheus,
    render,
    render_jsonl,
    render_prometheus,
    render_text,
    write_manifest,
)
from repro.obs.manifest import (
    RunManifest,
    environment_info,
    git_sha,
    input_digest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    ObsRecorder,
    Recorder,
    Span,
    resolve_recorder,
)

__all__ = [
    "FORMAT_JSONL",
    "FORMAT_PROM",
    "FORMAT_TEXT",
    "FORMATS",
    "parse_jsonl",
    "parse_prometheus",
    "render",
    "render_jsonl",
    "render_prometheus",
    "render_text",
    "write_manifest",
    "RunManifest",
    "environment_info",
    "git_sha",
    "input_digest",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecorder",
    "Recorder",
    "Span",
    "resolve_recorder",
]
