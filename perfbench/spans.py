"""Span tracing for the benchmark's traced runs, and its self-time math.

The traced child (``launch.py --trace-out``) installs a :class:`Tracer`
before it calls ``repro.cli.main``: each public function listed in
:data:`TRACE_POINTS` is replaced, *where its caller looks it up*, by a
wrapper that records one span per call.  A span is ``[id, point, start,
end, parent, thread, work]``: ``point`` indexes :data:`TRACE_POINTS`,
``parent`` is the id of the innermost open span on the same thread (or
-1), and ``work`` is a small count the wrapper read off the call (lines
decoded, bytes journaled, ...).  Spans stay in memory and are written
once, when the child exits.

:func:`summarize` turns a span dump into per-layer self times: a span's
self time is its duration minus the part of it that its child spans
cover (children may overlap, so the covered part is the length of the
union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, layer, label) for every traced function.
#: The module is where the *caller* looks the name up: ``repro.cli``
#: imports ``lint_model`` and ``ingest_log_jsonl_file`` at module load,
#: while ``mine --stream`` and the service import the rest at call time
#: (or call them as methods), so patching the defining module or class
#: reaches them.
TRACE_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.cli", "ingest_log_jsonl_file", "logs.decode", "ingest_file"),
    ("repro.logs.jsonl", "iter_ingest_log_jsonl_file", "logs.decode",
     "iter_next"),
    ("repro.logs.ingest", "IngestStream.push_batch", "logs.decode",
     "push_batch"),
    ("repro.core.state", "fold_executions", "core.fold", "fold_executions"),
    ("repro.core.state", "MiningState.update", "core.fold", "update"),
    ("repro.core.miner", "ProcessMiner.mine", "core.mine", "miner_mine"),
    ("repro.core.state", "MiningState.finish", "core.mine", "finish"),
    ("repro.cli", "lint_model", "lint.verify", "lint_model"),
    ("repro.analysis.coverage", "edge_coverage", "analysis.coverage",
     "edge_coverage"),
    ("repro.service.wire", "render_graph_block", "service.render",
     "render_graph_block"),
    ("repro.service.wire", "model_document", "service.render",
     "model_document"),
    ("repro.service.registry", "Tenant.ingest", "service.ingest", "ingest"),
    ("repro.service.registry", "Tenant.flush", "service.flush", "flush"),
    ("repro.service.registry", "Tenant.refresh_snapshot",
     "service.snapshot", "refresh"),
    ("repro.service.registry", "state_envelope", "service.snapshot",
     "envelope"),
    ("repro.resilience.journal", "Journal.append", "resilience.journal",
     "append"),
    ("repro.resilience.session", "DurableSession.checkpoint",
     "resilience.checkpoint", "checkpoint"),
)

#: Top-level layers a share is reported for (first component of a
#: point's layer name).
LAYERS = ("logs", "core", "lint", "analysis", "resilience", "service")


def _work_of(label: str, args: tuple, result) -> object:
    """The work count a span records for one call (0 when none)."""
    if label == "push_batch":
        return len(args[2])
    if label == "append":
        return len(args[1])
    if label == "miner_mine":
        trace = result.trace
        return [trace.variant_count, trace.reduction_cache_hits,
                trace.reduction_cache_misses]
    return 0


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Seconds read handlers waited for a tenant's worker lock.
        self.lock_waits: List[float] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, point: int) -> Tuple[list, List[int]]:
        stack = self._stack()
        span = [next(self._ids), point, 0.0, 0.0,
                stack[-1] if stack else -1, threading.get_ident(), 0]
        self.spans.append(span)
        stack.append(span[0])
        span[2] = time.monotonic()
        return span, stack

    def _timed(self, point: int, fn, args: tuple, kwargs: dict):
        span, stack = self._open(point)
        try:
            return span, fn(*args, **kwargs)
        finally:
            span[3] = time.monotonic()
            stack.pop()

    def wrap(self, point: int, fn):
        """``fn`` recording one span per call under ``TRACE_POINTS[point]``."""
        label = TRACE_POINTS[point][3]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, result = self._timed(point, fn, args, kwargs)
            span[6] = _work_of(label, args, result)
            return result

        return traced

    def wrap_iterator(self, point: int, fn):
        """A generator function whose every ``next`` is one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    _, item = self._timed(point, next, (iterator,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def wrap_update(self, point: int, fn):
        """``MiningState.update``: the span's work is the memo hit (0/1)."""

        @functools.wraps(fn)
        def traced(state, execution):
            hits = state.memo_hits
            span, _ = self._timed(point, fn, (state, execution), {})
            span[6] = state.memo_hits - hits

        return traced

    def wrap_finish(self, point: int, fn):
        """``MiningState.finish`` with a trace so its counters are read.

        ``finish`` builds a fresh ``MiningTrace`` when given none, so
        passing one in changes nothing but where the counters land.
        """
        from repro.core.general_dag import MiningTrace

        @functools.wraps(fn)
        def traced(state, *args, **kwargs):
            if len(args) >= 2:
                trace = args[1]
            else:
                trace = kwargs.get("trace")
                if trace is None:
                    trace = kwargs["trace"] = MiningTrace()
            span, graph = self._timed(point, fn, (state, *args), kwargs)
            span[6] = [trace.variant_count, trace.reduction_cache_hits,
                       trace.reduction_cache_misses]
            return graph

        return traced

    def wrap_lock_wait(self, fn):
        """``ServiceApp._with_tenant``: time reads wait for the lock."""

        @functools.wraps(fn)
        async def traced(app, process, callback):
            called = time.monotonic()
            started: List[float] = []

            def timed():
                started.append(time.monotonic())
                return callback()

            result = await fn(app, process, timed)
            if getattr(callback, "__name__", "") in (
                "snapshot", "fresh_snapshot"
            ):
                self.lock_waits.append(started[0] - called)
            return result

        return traced

    def install(self) -> None:
        """Patch every trace point (and the service lock-wait probe)."""
        for point, (module_name, path, _, label) in enumerate(TRACE_POINTS):
            owner: object = importlib.import_module(module_name)
            *classes, name = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = getattr(owner, name)
            if label == "iter_next":
                wrapped = self.wrap_iterator(point, fn)
            elif label == "update":
                wrapped = self.wrap_update(point, fn)
            elif label == "finish":
                wrapped = self.wrap_finish(point, fn)
            else:
                wrapped = self.wrap(point, fn)
            setattr(owner, name, wrapped)
        from repro.service.server import ServiceApp

        ServiceApp._with_tenant = self.wrap_lock_wait(
            ServiceApp._with_tenant)

    def dump(self, path: str, main_thread: int, extra: dict) -> None:
        """Write the spans (closed ones only) as one JSON document."""
        closed = [span for span in self.spans if span[3]]
        document = {
            "points": [list(point) for point in TRACE_POINTS],
            "main_thread": main_thread,
            "spans": closed,
            "lock_waits": self.lock_waits,
        }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def covered_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the union its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2])
        - covered_length(children.get(span[0], ()), span[2], span[3])
        for span in spans
    }


def clip(spans: Sequence[list], lo: float, hi: float) -> List[list]:
    """Spans that start inside ``[lo, hi]``."""
    return [span for span in spans if lo <= span[2] <= hi]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(
    document: dict,
    denominator_s: float,
    records: int,
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics (unprefixed names) from one span dump.

    ``denominator_s`` is the wall time each layer's share is taken of;
    ``records`` the input records of the phase (for per-record bytes).
    With ``window`` only spans starting inside it are counted.
    """
    points = [tuple(point) for point in document["points"]]
    spans = document["spans"]
    if window is not None:
        spans = clip(spans, *window)
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    label = {index: point[3] for index, point in enumerate(points)}
    layer_of = {index: point[2] for index, point in enumerate(points)}

    def sum_self(layer: str) -> float:
        return sum(own[s[0]] for s in spans if layer_of[s[1]] == layer)

    def with_label(name: str) -> List[list]:
        return [s for s in spans if label[s[1]] == name]

    def has_ancestor(span: list, name: str) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if label[parent[1]] == name:
                return True
            parent = by_id.get(parent[4])
        return False

    updates = with_label("update")
    hits = sum(s[6] for s in updates)
    mine_work = [s[6] for s in with_label("miner_mine") + with_label("finish")
                 if isinstance(s[6], list)]
    reduce_hits = sum(w[1] for w in mine_work)
    reduce_all = sum(w[1] + w[2] for w in mine_work)
    appends = with_label("append")
    refreshes = with_label("refresh")
    main = document.get("main_thread")
    loop_blocking = [
        (s[2], s[3]) for s in refreshes + with_label("flush")
        if s[5] == main
    ]
    lo = min((s[2] for s in spans), default=0.0)
    hi = max((s[3] for s in spans), default=0.0)
    metrics = {
        "logs.decode.self_s": sum_self("logs.decode"),
        "logs.decode.records": float(sum(s[6] for s in with_label(
            "push_batch"))),
        "core.fold.self_s": sum_self("core.fold"),
        "core.fold.executions": float(len(updates)),
        "core.fold.memo_hit_ratio": _ratio(hits, len(updates)),
        "core.mine.self_s": sum_self("core.mine"),
        "core.mine.calls": float(len(mine_work)),
        "core.mine.variants": float(max((w[0] for w in mine_work),
                                        default=0)),
        "core.mine.reduction_hit_ratio": _ratio(reduce_hits, reduce_all),
        "lint.verify.self_s": sum_self("lint.verify"),
        "analysis.coverage.self_s": sum_self("analysis.coverage"),
        "service.render.self_s": sum_self("service.render"),
        "service.render.calls": float(
            len(with_label("render_graph_block"))
            + len(with_label("model_document"))),
        "service.ingest.self_s": sum_self("service.ingest"),
        "service.ingest.batches": float(len(with_label("ingest"))),
        "resilience.journal.appends": float(len(appends)),
        "resilience.journal.self_s": sum_self("resilience.journal"),
        "resilience.journal.bytes_per_record": _ratio(
            sum(s[6] for s in appends), records),
        "resilience.checkpoint.count": float(len(with_label("checkpoint"))),
        "resilience.checkpoint.self_s": sum_self("resilience.checkpoint"),
        "service.snapshot.refreshes": float(len(refreshes)),
        "service.snapshot.self_s": sum_self("service.snapshot"),
        "service.snapshot.finish_s": sum(
            s[3] - s[2] for s in with_label("finish")
            if has_ancestor(s, "refresh")),
        "service.snapshot.envelope_s": sum(
            s[3] - s[2] for s in with_label("envelope")),
        "service.loop.blocked_s": covered_length(loop_blocking, lo, hi),
        "service.lock.wait_s": float(sum(document.get("lock_waits", ()))),
    }
    for layer in LAYERS:
        layer_self = sum(
            own[s[0]] for s in spans
            if layer_of[s[1]].split(".")[0] == layer
        )
        metrics[f"{layer}.share"] = _ratio(layer_self, denominator_s)
    return metrics
