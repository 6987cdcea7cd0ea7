"""Manifest exporters: JSONL trace events, Prometheus text, human table.

Three renderers over one :class:`~repro.obs.manifest.RunManifest`:

``jsonl``
    One JSON object per line: a ``manifest`` header record, one ``span``
    record per finished span (start order), one ``metric`` record per
    series.  Round-trips through :func:`parse_jsonl`.
``prom``
    Prometheus text exposition format 0.0.4 (``# TYPE`` comments,
    escaped label values, cumulative histogram buckets).  Round-trips
    through the minimal :func:`parse_prometheus` scraper.
``text``
    A human summary: manifest header, indented span tree with wall/CPU
    milliseconds, and a metrics table.

All three render deterministically from the same manifest, so any two
exports of one run agree by construction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.obs.manifest import RunManifest
from repro.obs.recorder import FORMAT_JSONL, FORMAT_PROM, FORMAT_TEXT, FORMATS

PathOrStr = Union[str, Path]


# ----------------------------------------------------------------------
# JSONL trace events
# ----------------------------------------------------------------------
def render_jsonl(manifest: RunManifest) -> str:
    """The manifest as newline-delimited JSON trace events."""
    lines = [
        json.dumps(
            {"type": "manifest", **manifest.header_dict()},
            sort_keys=True,
        )
    ]
    lines.extend(
        json.dumps({"type": "span", **span.to_dict()}, sort_keys=True)
        for span in manifest.spans
    )
    # A sample's own "type" is its metric kind; keep it as "kind" so the
    # record "type" discriminator stays "metric".
    lines.extend(
        json.dumps(
            {**sample, "kind": sample["type"], "type": "metric"},
            sort_keys=True,
        )
        for sample in manifest.metrics
    )
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> Dict[str, List[dict]]:
    """Group a JSONL export's records by their ``type`` field."""
    grouped: Dict[str, List[dict]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.pop("type", None)
        if kind not in ("manifest", "span", "metric"):
            raise ValueError(
                f"line {line_number}: unknown trace-event type {kind!r}"
            )
        grouped.setdefault(kind, []).append(record)
    return grouped


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    cleaned = [
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    ]
    if cleaned and cleaned[0].isdigit():
        cleaned.insert(0, "_")
    return "".join(cleaned) or "_"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(
    labels: dict, extra: Tuple[Tuple[str, str], ...] = ()
) -> str:
    pairs = [*sorted(labels.items()), *extra]
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape(str(value))}"' for key, value in pairs
    )
    return "{" + body + "}"


def _prom_number(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def render_prometheus(manifest: RunManifest) -> str:
    """The metric snapshot in Prometheus text exposition format.

    Spans are exposed too, as the ``repro_span_seconds`` /
    ``repro_span_cpu_seconds`` gauge families labelled by stage, so a
    scrape carries the full stage breakdown.
    """
    lines: List[str] = []
    typed: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for sample in manifest.metrics:
        name = _prom_name(sample["name"])
        labels = sample.get("labels", {})
        kind = sample["type"]
        type_line(name, kind)
        if kind == "histogram":
            running = 0
            for le, count in sample["buckets"]:
                running += count
                lines.append(
                    f"{name}_bucket"
                    f"{_prom_labels(labels, (('le', _prom_number(float(le))),))}"
                    f" {running}"
                )
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(labels, (('le', '+Inf'),))}"
                f" {sample['count']}"
            )
            lines.append(
                f"{name}_sum{_prom_labels(labels)} "
                f"{_prom_number(sample['sum'])}"
            )
            lines.append(
                f"{name}_count{_prom_labels(labels)} {sample['count']}"
            )
        else:
            lines.append(
                f"{name}{_prom_labels(labels)} "
                f"{_prom_number(sample['value'])}"
            )

    for family, attribute in (
        ("repro_span_seconds", "wall_seconds"),
        ("repro_span_cpu_seconds", "cpu_seconds"),
    ):
        if manifest.spans:
            type_line(family, "gauge")
        for span in manifest.spans:
            value = getattr(span, attribute)
            labels = _prom_labels(
                {"stage": span.name, "index": str(span.index)}
            )
            lines.append(f"{family}{labels} {_prom_number(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Minimal scraper for the text exposition format.

    Returns ``{(name, sorted label pairs): value}``.  Raises
    :class:`ValueError` on lines that are neither comments nor valid
    samples — the acceptance check "output parses as Prometheus text
    exposition" is exactly this function succeeding.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, rest = _parse_prom_sample(line, line_number)
        value_text = rest.strip().split()[0]
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {line_number}: bad sample value {value_text!r}"
            ) from None
        samples[(name, labels)] = value
    return samples


def _parse_prom_sample(
    line: str, line_number: int
) -> Tuple[str, Tuple[Tuple[str, str], ...], str]:
    brace = line.find("{")
    if brace == -1:
        name, _, rest = line.partition(" ")
        if not rest:
            raise ValueError(
                f"line {line_number}: sample without value: {line!r}"
            )
        _check_prom_name(name, line_number)
        return name, (), rest
    name = line[:brace]
    _check_prom_name(name, line_number)
    end = line.find("}", brace)
    if end == -1:
        raise ValueError(f"line {line_number}: unterminated label set")
    pairs: List[Tuple[str, str]] = []
    body = line[brace + 1:end]
    position = 0
    while position < len(body):
        eq = body.find("=", position)
        if eq == -1:
            raise ValueError(
                f"line {line_number}: malformed label in {body!r}"
            )
        key = body[position:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ValueError(
                f"line {line_number}: unquoted label value for {key!r}"
            )
        cursor = eq + 2
        value_chars: List[str] = []
        while cursor < len(body):
            ch = body[cursor]
            if ch == "\\" and cursor + 1 < len(body):
                escape = body[cursor + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(
                        escape, "\\" + escape
                    )
                )
                cursor += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            cursor += 1
        else:
            raise ValueError(
                f"line {line_number}: unterminated label value"
            )
        pairs.append((key, "".join(value_chars)))
        position = cursor + 1
    return name, tuple(sorted(pairs)), line[end + 1:]


def _check_prom_name(name: str, line_number: int) -> None:
    valid = name and (name[0].isalpha() or name[0] in "_:") and all(
        ch.isalnum() or ch in "_:" for ch in name
    )
    if not valid:
        raise ValueError(
            f"line {line_number}: invalid metric name {name!r}"
        )


# ----------------------------------------------------------------------
# Human summary table
# ----------------------------------------------------------------------
def render_text(manifest: RunManifest) -> str:
    """A human-readable run summary (header, span tree, metric table)."""
    lines: List[str] = [f"run: {manifest.command}"]
    if manifest.input_path:
        lines.append(f"  input: {manifest.input_path}")
    if manifest.input_digest:
        lines.append(f"  digest: {manifest.input_digest}")
    if manifest.git_sha:
        lines.append(f"  git: {manifest.git_sha}")
    environment = manifest.environment
    lines.append(
        f"  python: {environment.get('python', '?')} "
        f"({environment.get('platform', '?')})"
    )
    for key, value in sorted(manifest.config.items()):
        lines.append(f"  config.{key}: {value}")

    if manifest.spans:
        lines.append("")
        lines.append(f"{'stage':<44} {'wall ms':>10} {'cpu ms':>10}")
        for span in manifest.spans:
            label = "  " * span.depth + span.name
            lines.append(
                f"{label:<44} {span.wall_seconds * 1000:>10.2f} "
                f"{span.cpu_seconds * 1000:>10.2f}"
            )

    if manifest.metrics:
        lines.append("")
        lines.append(f"{'metric':<58} {'value':>14}")
        for sample in manifest.metrics:
            label = sample["name"] + _prom_labels(
                sample.get("labels", {})
            )
            if sample["type"] == "histogram":
                mean = (
                    sample["sum"] / sample["count"]
                    if sample["count"]
                    else 0.0
                )
                value = (
                    f"n={sample['count']} mean={mean:.6g}"
                )
            else:
                value = _prom_number(sample["value"])
            lines.append(f"{label:<58} {value:>14}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
_RENDERERS = {
    FORMAT_JSONL: render_jsonl,
    FORMAT_PROM: render_prometheus,
    FORMAT_TEXT: render_text,
}


def render(manifest: RunManifest, fmt: str) -> str:
    """Render ``manifest`` in ``fmt`` (one of :data:`FORMATS`)."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown metrics format {fmt!r}; expected one of {FORMATS}"
        ) from None
    return renderer(manifest)


def write_manifest(
    manifest: RunManifest, path: PathOrStr, fmt: str = FORMAT_JSONL
) -> Path:
    """Render and write ``manifest`` to ``path``; returns the path.

    Written via :func:`repro.resilience.durable.durable_write` so a
    crash mid-export never clobbers a previous manifest with a
    partial one.
    """
    from repro.resilience.durable import durable_write

    path = Path(path)
    durable_write(path, render(manifest, fmt).encode("utf-8"))
    return path
