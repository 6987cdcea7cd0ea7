"""Recorders: hierarchical spans plus a metrics registry, or a no-op.

Two implementations share one duck-typed interface:

* :class:`ObsRecorder` — the real thing.  ``span(name)`` opens a
  hierarchical span (wall time via ``perf_counter``, CPU time via
  ``process_time``); finished spans accumulate in *start* order, each
  knowing its parent and depth.  ``registry`` is the run's
  :class:`~repro.obs.metrics.MetricsRegistry`.
* :class:`NullRecorder` — the disabled-by-default fast path.  Every
  method is a constant-return no-op: ``span()`` hands back one shared
  context-manager singleton and counters/gauges/histograms route to one
  shared sink that ignores writes, so instrumented code allocates
  nothing when observability is off.

Instrumented code takes a recorder argument defaulting to
:data:`NULL_RECORDER` and never needs an ``if enabled`` guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import List, Mapping, Optional, Sequence, Union

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry

Number = Union[int, float]

FORMAT_JSONL = "jsonl"
FORMAT_PROM = "prom"
FORMAT_TEXT = "text"

#: Formats accepted by ``--metrics-format`` and
#: :func:`repro.obs.export.render` (defined here, beside the spans and
#: metrics they export, so the CLI's parser need not load the exporters).
FORMATS = (FORMAT_JSONL, FORMAT_PROM, FORMAT_TEXT)


@dataclass(frozen=True)
class Span:
    """One finished span.

    ``index`` is the span's position in start order; ``parent`` is the
    enclosing span's index (``None`` at the root); ``start`` is seconds
    since the recorder was created.
    """

    name: str
    index: int
    parent: Optional[int]
    depth: int
    start: float
    wall_seconds: float
    cpu_seconds: float
    attrs: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (the JSONL trace-event payload)."""
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start_s": round(self.start, 9),
            "wall_s": round(self.wall_seconds, 9),
            "cpu_s": round(self.cpu_seconds, 9),
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """Context manager for one in-flight :class:`ObsRecorder` span."""

    __slots__ = (
        "_recorder", "_name", "_attrs", "_index", "_parent",
        "_depth", "_start", "_wall0", "_cpu0",
    )

    def __init__(
        self, recorder: "ObsRecorder", name: str, attrs: dict
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        recorder = self._recorder
        self._index = len(recorder._slots)
        recorder._slots.append(None)
        self._parent = (
            recorder._stack[-1] if recorder._stack else None
        )
        self._depth = len(recorder._stack)
        recorder._stack.append(self._index)
        self._wall0 = perf_counter()
        self._cpu0 = process_time()
        self._start = self._wall0 - recorder._epoch
        return self

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the span while it is open."""
        self._attrs.update(attrs)

    def __exit__(self, *exc_info: object) -> None:
        wall = perf_counter() - self._wall0
        cpu = process_time() - self._cpu0
        recorder = self._recorder
        recorder._stack.pop()
        recorder._slots[self._index] = Span(
            name=self._name,
            index=self._index,
            parent=self._parent,
            depth=self._depth,
            start=self._start,
            wall_seconds=wall,
            cpu_seconds=cpu,
            attrs=self._attrs,
        )


class ObsRecorder:
    """Collect spans and metrics for one run."""

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        self._epoch = perf_counter()
        self._slots: List[Optional[Span]] = []
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        return _ActiveSpan(self, name, dict(attrs))

    @property
    def spans(self) -> List[Span]:
        """Finished spans in start order (open spans excluded)."""
        return [span for span in self._slots if span is not None]

    def span_names(self) -> List[str]:
        """Names of the finished spans, in start order."""
        return [span.name for span in self.spans]

    # ------------------------------------------------------------------
    # Metric shorthands
    # ------------------------------------------------------------------
    def count(
        self,
        name: str,
        amount: Number = 1,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Add ``amount`` to counter ``name``."""
        self.registry.counter(name, labels).inc(amount)

    def gauge(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Set gauge ``name`` to ``value``."""
        self.registry.gauge(name, labels).set(value)

    def observe(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one observation into histogram ``name``."""
        self.registry.histogram(name, labels, bounds=bounds).observe(value)


class _NullSpan:
    """The shared no-op span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **attrs: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled fast path: every operation is a cheap no-op.

    ``span()`` always returns the same module-level singleton and the
    metric shorthands return immediately, so instrumentation sites cost
    one attribute lookup and one call — and allocate nothing.
    """

    enabled = False
    registry = None

    __slots__ = ()

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    @property
    def spans(self) -> List[Span]:
        return []

    def span_names(self) -> List[str]:
        return []

    def count(
        self,
        name: str,
        amount: Number = 1,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        return None

    def gauge(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        return None

    def observe(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        return None


#: The shared disabled recorder; instrumented code defaults to this.
NULL_RECORDER = NullRecorder()

Recorder = Union[ObsRecorder, NullRecorder]


def resolve_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Map ``None`` (observability off) to :data:`NULL_RECORDER`."""
    return recorder if recorder is not None else NULL_RECORDER
