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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.export import (
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
        FORMAT_JSONL,
        FORMAT_PROM,
        FORMAT_TEXT,
        FORMATS,
        NULL_RECORDER,
        NullRecorder,
        ObsRecorder,
        Recorder,
        Span,
        resolve_recorder,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "parse_jsonl": ".export",
    "parse_prometheus": ".export",
    "render": ".export",
    "render_jsonl": ".export",
    "render_prometheus": ".export",
    "render_text": ".export",
    "write_manifest": ".export",
    "RunManifest": ".manifest",
    "environment_info": ".manifest",
    "git_sha": ".manifest",
    "input_digest": ".manifest",
    "DEFAULT_BUCKETS": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "FORMAT_JSONL": ".recorder",
    "FORMAT_PROM": ".recorder",
    "FORMAT_TEXT": ".recorder",
    "FORMATS": ".recorder",
    "NULL_RECORDER": ".recorder",
    "NullRecorder": ".recorder",
    "ObsRecorder": ".recorder",
    "Recorder": ".recorder",
    "Span": ".recorder",
    "resolve_recorder": ".recorder",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
