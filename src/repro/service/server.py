"""The asyncio HTTP/JSONL daemon: mining as a service.

Dependency-free by construction — ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 reader/writer; no web framework.  The endpoint
surface is :data:`repro.service.router.ROUTES`; the semantics:

* ``POST /v1/{process}/events`` — JSONL event lines (single object or
  batch).  Accepted batches are *queued* (202) and folded by the
  tenant's worker task; a full queue answers 429 with ``Retry-After``.
* ``POST /v1/{process}/flush`` — drain the tenant's queue, finalize
  every open execution window, refresh the model snapshot; returns the
  ingest accounting.  The synchronization point batch-parity checks
  hinge on.
* ``GET /v1/{process}/model`` — the mined model as of every execution
  folded before the read (``?format=json|dot|edges|ascii``); text
  formats are byte-identical to ``repro-miner mine`` stdout for the
  same records.
* ``GET /v1/{process}/state`` — the canonical v3 state envelope,
  byte-identical to ``mine --stream --state-out``.
* ``POST /v1/{process}/lint`` — the structural lint rules over the
  snapshot's model.
* ``GET /metrics`` — Prometheus text exposition of the daemon's
  recorder.  ``GET /healthz`` — liveness (503 while draining).

Ingest work runs *off* the event loop: request bodies decode in a
small executor pool, and each tenant's worker task hands whole queued
batches to a single fold thread (``Tenant.ingest`` → ``push_batch``),
so large folds never stall request handling.  A per-tenant lock
serializes the fold thread against loop-side reads, which refresh the
tenant's snapshot when folds went by since the last one — so a read
sees every fold completed before it and never a half-folded state, and
queue backpressure (429 on a full queue) is unchanged.
Graceful shutdown (SIGTERM/SIGINT) drains every queue, flushes open
windows, checkpoints every tenant via
:meth:`~repro.resilience.session.DurableSession.handoff`, and a
restarted daemon recovers each tenant byte-identically.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.lint import LintConfig
from repro.obs import NULL_RECORDER
from repro.resilience.durable import durable_write
from repro.resilience.session import HandoffReceipt
from repro.service import wire
from repro.service.registry import (
    ServiceError,
    Tenant,
    TenantConfig,
    TenantRegistry,
)
from repro.service.router import RouteError, resolve

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_BYTES = 32768
# Bodies at or above this size are decoded off-loop in the decode pool;
# smaller bodies decode inline so the handler reaches the ingest queue
# without yielding (keeps single-request backpressure deterministic).
_OFFLOAD_BODY_BYTES = 64 * 1024
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes


@dataclass(frozen=True)
class Response:
    """One response the app hands back to the HTTP writer."""

    status: int
    body: bytes
    content_type: str = wire.MEDIA_JSON
    headers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def json(
        cls,
        status: int,
        document: object,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> "Response":
        return cls(
            status=status,
            body=wire.dump_json(document),
            headers=headers,
        )

    @classmethod
    def error(
        cls,
        status: int,
        message: str,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> "Response":
        return cls.json(
            status, wire.error_document(message), headers=headers
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one daemon instance needs to run."""

    data_dir: Path
    host: str = "127.0.0.1"
    port: int = 8787
    tenant: TenantConfig = field(default_factory=TenantConfig)
    #: Batches a tenant may have queued before 429 backpressure.
    queue_limit: int = 64
    max_tenants: int = 1024
    max_body_bytes: int = 8 * 1024 * 1024
    #: Idle seconds before open execution windows are auto-flushed
    #: (0 disables periodic finalization).
    idle_flush_seconds: float = 30.0
    maintenance_interval: float = 1.0
    #: When set, the bound port is written here after listen (CI boots
    #: on port 0 and discovers the ephemeral port from this file).
    port_file: Optional[Path] = None


class TenantWorker:
    """The asyncio side of one tenant: queue + off-loop fold task.

    The worker task is the only submitter of this tenant's fold work,
    and it holds :attr:`lock` across each executor hand-off — any
    loop-side code that reads or refreshes the tenant's state (flush
    handlers, snapshot reads, maintenance) takes the same lock and is
    thereby serialized against the fold thread.
    """

    def __init__(
        self,
        tenant: Tenant,
        queue_limit: int,
        recorder,
        fold_pool: ThreadPoolExecutor,
    ) -> None:
        self.tenant = tenant
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.recorder = recorder
        self.fold_pool = fold_pool
        self.lock = asyncio.Lock()
        self.errors: List[dict] = []
        self.last_activity = asyncio.get_running_loop().time()
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"tenant:{tenant.process}"
        )

    def _record_error(self, exc: Exception) -> None:
        kind = "limit" if "Limit" in type(exc).__name__ else "format"
        self.errors.append({"kind": kind, "error": str(exc)})
        del self.errors[:-8]
        self.recorder.count(
            "repro_service_ingest_errors_total", labels={"kind": kind}
        )

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            lines = await self.queue.get()
            try:
                async with self.lock:
                    await loop.run_in_executor(
                        self.fold_pool, self.tenant.ingest, lines
                    )
            except ReproError as exc:
                self._record_error(exc)
            finally:
                self.queue.task_done()
                self.last_activity = loop.time()
                self.recorder.gauge(
                    "repro_service_queue_depth",
                    self.queue.qsize(),
                    labels={"process": self.tenant.process},
                )

    async def drain(self) -> None:
        """Wait until every queued batch has been folded."""
        await self.queue.join()

    async def stop(self) -> None:
        await self.drain()
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


class ServiceApp:
    """Request handling over the tenant registry (transport-free).

    ``handle`` maps a :class:`Request` to a :class:`Response`; the
    socket server below is one caller, tests call it directly.
    """

    def __init__(
        self, config: ServiceConfig, recorder=NULL_RECORDER
    ) -> None:
        self.config = config
        self.recorder = recorder
        self.registry = TenantRegistry(
            config.data_dir,
            config.tenant,
            recorder=recorder,
            max_tenants=config.max_tenants,
        )
        self._workers: Dict[str, TenantWorker] = {}
        # One fold thread total: folds for different tenants serialize
        # through it (each tenant is already serialized by its worker
        # task + lock), which keeps the mining states, journals and the
        # shared recorder single-writer.  Body decoding is pure and
        # gets its own small pool so it never queues behind a fold.
        self._fold_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fold"
        )
        self._decode_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-decode"
        )
        self.draining = False
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def startup(self) -> List[str]:
        """Re-open persisted tenants; returns their recovery summaries."""
        self._started_at = asyncio.get_running_loop().time()
        summaries = []
        for process, recovery in self.registry.startup():
            summaries.append(f"{process}: {recovery.summary()}")
        return summaries

    def worker_for(self, tenant: Tenant) -> TenantWorker:
        worker = self._workers.get(tenant.process)
        if worker is None:
            worker = TenantWorker(
                tenant,
                self.config.queue_limit,
                self.recorder,
                self._fold_pool,
            )
            self._workers[tenant.process] = worker
        return worker

    async def _with_tenant(self, process: str, fn: Callable):
        """Run ``fn`` serialized against the tenant's fold thread.

        Loop-side reads that can refresh a snapshot (and flushes) must
        not observe a half-folded state; taking the worker's lock
        orders them after any in-flight executor fold.  Tenants
        without a worker have no off-loop activity to race.
        """
        worker = self._workers.get(process)
        if worker is None:
            return fn()
        async with worker.lock:
            return fn()

    async def shutdown(self) -> Dict[str, HandoffReceipt]:
        """Drain every queue, then checkpoint and close every tenant."""
        self.draining = True
        for worker in list(self._workers.values()):
            await worker.stop()
        self._workers.clear()
        self._fold_pool.shutdown(wait=True)
        self._decode_pool.shutdown(wait=True)
        return self.registry.close_all()

    async def maintenance_pass(self) -> int:
        """Periodic window finalization for idle tenants.

        A tenant whose queue is empty, which holds open execution
        windows, and which has not folded anything for
        ``idle_flush_seconds`` gets those windows flushed — so a
        quiescent tenant's model converges without requiring a
        client-side flush.
        """
        if self.config.idle_flush_seconds <= 0:
            return 0
        loop = asyncio.get_running_loop()
        flushed = 0
        for worker in list(self._workers.values()):
            idle = loop.time() - worker.last_activity
            if (
                worker.queue.empty()
                and not worker.lock.locked()
                and idle >= self.config.idle_flush_seconds
                and worker.tenant.stream.open_executions
            ):
                async with worker.lock:
                    worker.tenant.flush()
                flushed += 1
        return flushed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        endpoint = "unrouted"
        try:
            match = resolve(request.method, request.path)
            endpoint = match.handler
            handler = getattr(self, f"_handle_{match.handler}")
            if match.process is None:
                response = await handler(request)
            else:
                response = await handler(request, match.process)
        except RouteError as exc:
            headers: Tuple[Tuple[str, str], ...] = ()
            if exc.allow:
                headers = (("Allow", exc.allow),)
            response = Response.error(
                exc.status, str(exc), headers=headers
            )
        except ServiceError as exc:
            response = Response.error(exc.status, str(exc))
        except ReproError as exc:
            response = Response.error(500, str(exc))
        self.recorder.count(
            "repro_service_requests_total",
            labels={
                "endpoint": endpoint,
                "status": str(response.status),
            },
        )
        return response

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        if self.draining:
            return Response.json(503, {"status": "draining"})
        uptime = 0.0
        if self._started_at is not None:
            uptime = (
                asyncio.get_running_loop().time() - self._started_at
            )
        return Response.json(
            200,
            {
                "status": "ok",
                "tenants": len(self.registry),
                "uptime_seconds": round(uptime, 3),
            },
        )

    async def _handle_metrics(self, request: Request) -> Response:
        from repro.obs.export import render_prometheus
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.collect(self.recorder, command="serve")
        return Response(
            status=200,
            body=render_prometheus(manifest).encode("utf-8"),
            content_type=wire.MEDIA_PROMETHEUS,
        )

    async def _handle_tenants(self, request: Request) -> Response:
        documents = []
        for tenant in self.registry.tenants():
            documents.append(
                await self._with_tenant(tenant.process, tenant.stats)
            )
        return Response.json(200, {"tenants": documents})

    async def _handle_events(
        self, request: Request, process: str
    ) -> Response:
        if self.draining:
            return Response.error(
                503, "daemon is draining", headers=(("Retry-After", "5"),)
            )
        try:
            if len(request.body) >= _OFFLOAD_BODY_BYTES:
                lines = await asyncio.get_running_loop().run_in_executor(
                    self._decode_pool,
                    wire.split_event_lines,
                    request.body,
                )
            else:
                # Small bodies decode inline: no yield to other tasks,
                # so queue backpressure stays exactly as deterministic
                # as it was when ingest ran on-loop.
                lines = wire.split_event_lines(request.body)
        except UnicodeDecodeError:
            return Response.error(400, "body is not valid UTF-8")
        if not lines:
            return Response.error(400, "no event lines in body")
        tenant, _ = self.registry.get_or_create(process)
        worker = self.worker_for(tenant)
        try:
            worker.queue.put_nowait(lines)
        except asyncio.QueueFull:
            self.recorder.count("repro_service_backpressure_total")
            return Response.error(
                429,
                f"ingest queue for {process!r} is full "
                f"({self.config.queue_limit} batches)",
                headers=(("Retry-After", "1"),),
            )
        self.recorder.count(
            "repro_service_events_total", amount=len(lines)
        )
        self.recorder.gauge(
            "repro_service_queue_depth",
            worker.queue.qsize(),
            labels={"process": process},
        )
        return Response.json(
            202,
            {
                "process": process,
                "queued": len(lines),
                "pending_batches": worker.queue.qsize(),
            },
        )

    async def _handle_flush(
        self, request: Request, process: str
    ) -> Response:
        tenant, _ = self.registry.get_or_create(process)
        worker = self.worker_for(tenant)
        await worker.drain()
        folded = await self._with_tenant(process, tenant.flush)
        document = tenant.stats()
        document["flushed_executions"] = folded
        document["errors"] = list(worker.errors)
        return Response.json(200, document)

    def _tenant_for_read(self, process: str) -> Tenant:
        self.registry.validate_process_id(process)
        tenant = self.registry.get(process)
        if tenant is None:
            raise ServiceError(
                f"unknown process {process!r}", status=404
            )
        return tenant

    async def _handle_model(
        self, request: Request, process: str
    ) -> Response:
        tenant = self._tenant_for_read(process)
        fmt = request.query.get("format", wire.FORMAT_JSON)
        if fmt not in wire.MODEL_FORMATS:
            raise ServiceError(
                f"format must be one of {wire.MODEL_FORMATS}, "
                f"got {fmt!r}"
            )
        snapshot = await self._with_tenant(process, tenant.snapshot)
        if snapshot is None:
            raise ServiceError(
                f"process {process!r} has no model yet "
                f"(no finalized executions)",
                status=404,
            )
        headers = (("X-Snapshot-Seq", str(snapshot.seq)),)
        if fmt == wire.FORMAT_JSON:
            return Response.json(
                200,
                wire.model_document(
                    process=process,
                    algorithm=snapshot.algorithm,
                    graph=snapshot.graph,
                    executions=snapshot.executions,
                    variants=snapshot.variants,
                    snapshot_seq=snapshot.seq,
                    threshold=self.config.tenant.threshold,
                ),
                headers=headers,
            )
        text = wire.render_graph_block(
            snapshot.graph,
            fmt,
            name=process,
            algorithm=snapshot.algorithm,
        )
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type=wire.MEDIA_TEXT,
            headers=headers,
        )

    async def _handle_state(
        self, request: Request, process: str
    ) -> Response:
        tenant = self._tenant_for_read(process)
        snapshot = await self._with_tenant(
            process, tenant.state_snapshot
        )
        if snapshot is None:
            raise ServiceError(
                f"process {process!r} has no state yet", status=404
            )
        return Response(
            status=200,
            body=snapshot.envelope.encode("utf-8"),
            content_type=wire.MEDIA_JSON,
            headers=(("X-Snapshot-Seq", str(snapshot.seq)),),
        )

    async def _handle_lint(
        self, request: Request, process: str
    ) -> Response:
        from repro.lint.emitters import render as render_lint

        tenant = self._tenant_for_read(process)
        options: Dict[str, object] = {}
        if request.body.strip():
            try:
                options = json.loads(request.body)
            except ValueError as exc:
                raise ServiceError(
                    f"lint config is not valid JSON: {exc}"
                ) from exc
            if not isinstance(options, dict):
                raise ServiceError("lint config must be a JSON object")
        config = LintConfig(
            select=options.get("select"),
            ignore=options.get("ignore"),
            dag_mode=bool(options.get("require_acyclic", False)),
            noise_threshold=max(int(options.get("threshold", 0)), 0),
        )
        report = await self._with_tenant(
            process, lambda: tenant.lint(config)
        )
        return Response.json(
            200,
            {
                "process": process,
                "exit_code": report.exit_code,
                "report": json.loads(
                    render_lint(report, "json", artifact=process)
                ),
            },
        )


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one HTTP/1.1 request; None on a cleanly closed connection.

    Raises :class:`ValueError` on malformed framing (the connection
    handler answers 400 and closes).
    """
    try:
        raw_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ValueError("truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise ValueError("request line too long") from exc
    if len(raw_line) > _MAX_REQUEST_LINE:
        raise ValueError("request line too long")
    parts = raw_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        header_bytes += len(line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise ValueError("headers too large")
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, separator, value = text.partition(":")
        if not separator:
            raise ValueError(f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ValueError("chunked transfer encoding is not supported")
    length = int(headers.get("content-length", "0") or "0")
    if length < 0:
        raise ValueError("negative content-length")
    if length > max_body_bytes:
        raise ValueError(f"body larger than {max_body_bytes} bytes")
    body = await reader.readexactly(length) if length else b""
    path, _, query_text = target.partition("?")
    query: Dict[str, str] = {}
    for pair in query_text.split("&"):
        if pair:
            key, _, value = pair.partition("=")
            query[key] = value
    return Request(
        method=method,
        path=path,
        query=query,
        headers=headers,
        body=body,
    )


def _render_response(response: Response, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in response.headers)
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + response.body


class ServiceServer:
    """The socket front-end: accept loop, signals, graceful shutdown."""

    def __init__(
        self, config: ServiceConfig, recorder=NULL_RECORDER
    ) -> None:
        self.config = config
        self.recorder = recorder
        self.app = ServiceApp(config, recorder=recorder)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._maintenance: Optional[asyncio.Task] = None
        self.port: Optional[int] = None

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(
                        reader, self.config.max_body_bytes
                    )
                except ValueError as exc:
                    writer.write(
                        _render_response(
                            Response.error(400, str(exc)), False
                        )
                    )
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                keep_alive = (
                    request.headers.get("connection", "").lower()
                    != "close"
                )
                try:
                    response = await self.app.handle(request)
                except Exception as exc:  # last-resort 500
                    response = Response.error(
                        500, f"internal error: {exc}"
                    )
                writer.write(_render_response(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _maintenance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.maintenance_interval)
            await self.app.maintenance_pass()

    def request_stop(self, why: str) -> None:
        """Signal-handler entry: begin graceful shutdown."""
        print(f"repro-service: {why}, draining", file=sys.stderr)
        self.app.draining = True
        if self._stop is not None:
            self._stop.set()

    async def start(self) -> int:
        """Bind, announce, and start serving; returns the bound port."""
        self._stop = asyncio.Event()
        for summary in self.app.startup():
            print(f"repro-service: recovered {summary}", file=sys.stderr)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else None
        if self.config.port_file is not None:
            durable_write(
                Path(self.config.port_file), f"{self.port}\n"
            )
        print(
            f"repro-service: listening on "
            f"http://{self.config.host}:{self.port} "
            f"(data: {self.config.data_dir})",
            file=sys.stderr,
        )
        self._maintenance = asyncio.get_running_loop().create_task(
            self._maintenance_loop()
        )
        return int(self.port or 0)

    async def run_until_stopped(self) -> Dict[str, HandoffReceipt]:
        """Serve until a stop is requested, then shut down cleanly."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    self.request_stop,
                    signal.Signals(signum).name,
                )
            except NotImplementedError:  # pragma: no cover - platform
                pass
        assert self._stop is not None
        await self._stop.wait()
        return await self.stop()

    async def stop(self) -> Dict[str, HandoffReceipt]:
        """Stop accepting, drain tenants, checkpoint, hand off."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._maintenance is not None:
            self._maintenance.cancel()
            try:
                await self._maintenance
            except asyncio.CancelledError:
                pass
        receipts = await self.app.shutdown()
        for process, receipt in sorted(receipts.items()):
            print(
                f"repro-service: checkpointed {process!r} at seq "
                f"{receipt.covered_seq} "
                f"({'clean' if receipt.clean else 'DIRTY'})",
                file=sys.stderr,
            )
        return receipts


async def _serve_async(
    config: ServiceConfig, recorder=NULL_RECORDER
) -> int:
    server = ServiceServer(config, recorder=recorder)
    await server.start()
    await server.run_until_stopped()
    return 0


def serve(config: ServiceConfig, recorder=NULL_RECORDER) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit status."""
    return asyncio.run(_serve_async(config, recorder=recorder))
