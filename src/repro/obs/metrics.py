"""Typed per-run metrics: counters, gauges, histograms, registry.

The registry is the single mutable store one run writes into.  It is
dependency-free and deliberately small — three metric types with the
semantics their Prometheus namesakes have:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — a value that can go up and down (last write wins);
* :class:`Histogram` — bucketed observations with ``sum`` and ``count``.

Metrics are keyed by ``(name, labels)`` where labels are an immutable
sorted tuple of ``(key, value)`` string pairs, so the same logical series
is always the same object regardless of keyword order at the call site.

Stable metric names are catalogued in ``docs/OBSERVABILITY.md``; code
should treat a rename as a breaking change.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

Number = Union[int, float]

_SeriesT = TypeVar("_SeriesT", bound="Metric")
LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured, matching
#: the pipeline's per-chunk timing range).  ``inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(
        sorted((str(k), str(v)) for k, v in labels.items())
    )


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value; ``set`` overwrites."""

    kind = "gauge"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current value of the measured quantity."""
        self.value = value


class Histogram:
    """Bucketed observations with cumulative Prometheus semantics.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` exactly as
    observed (non-cumulative internally); the exporter accumulates to
    Prometheus' cumulative ``le`` convention.  The overflow bucket
    (``+Inf``) is ``count - sum(bucket_counts)``.
    """

    kind = "histogram"

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if tuple(bounds) != tuple(sorted(bounds)):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.sum: float = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(
            self.bounds, self.bucket_counts, strict=True
        ):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """The per-run store of every metric series.

    Series are created on first use and iterated in sorted
    ``(name, labels)`` order, so every export of the same run state is
    byte-identical.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelPairs], Metric] = {}

    # ------------------------------------------------------------------
    # Series accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """The counter series ``name`` with ``labels``."""
        return self._series(Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """The gauge series ``name`` with ``labels``."""
        return self._series(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram series ``name`` with ``labels``."""
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], bounds=bounds)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _series(
        self,
        cls: Type[_SeriesT],
        name: str,
        labels: Optional[Mapping[str, str]],
    ) -> _SeriesT:
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Metric]:
        """The existing series, or ``None`` (never creates)."""
        return self._metrics.get((name, _freeze_labels(labels)))

    def snapshot(self) -> List[dict]:
        """JSON-ready samples in sorted series order."""
        samples: List[dict] = []
        for metric in self:
            sample = {
                "name": metric.name,
                "type": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                sample["sum"] = metric.sum
                sample["count"] = metric.count
                sample["buckets"] = [
                    [le, n] for le, n in zip(
                        metric.bounds,
                        metric.bucket_counts,
                        strict=True,
                    )
                ]
            else:
                sample["value"] = metric.value
            samples.append(sample)
        return samples
