"""The mining service daemon: wire codecs, routing, tenants, the
asyncio app, and a live socket round-trip.

The layering mirrors the implementation: :class:`TestWire` and
:class:`TestRouter` are pure functions; :class:`TestTenants` drives the
synchronous registry directly (no event loop); :class:`TestApp` runs
the transport-free :class:`~repro.service.server.ServiceApp` under
``asyncio.run``; :class:`TestDaemon` boots the real ``repro-miner
serve`` process and asserts the CI acceptance contract — model bytes
identical to batch ``mine`` stdout, state bytes identical to ``mine
--stream --state-out``, ``/metrics`` parses, and SIGTERM checkpoints
every tenant so a restart resumes byte-identically.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.state import MiningState, state_envelope
from repro.logs.execution import Execution
from repro.logs.jsonl import record_to_json
from repro.obs import ObsRecorder, parse_prometheus
from repro.service import wire
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.registry import (
    ServiceError,
    Tenant,
    TenantConfig,
    TenantRegistry,
    tenant_directory_name,
)
from repro.service.router import RouteError, resolve
from repro.service.server import Request, ServiceApp, ServiceConfig

PROCESS = "claims"
SEQUENCES = ["ABCF", "ACDF", "ABDF", "ABCDF", "ABCF", "ACDF"]
CYCLIC = ["SLBE", "SLBLBE", "SLE"]


def executions(sequences):
    return [
        Execution.from_sequence(
            list(seq), f"e{index:04d}", start_time=float(index)
        )
        for index, seq in enumerate(sequences)
    ]


def event_lines(sequences, process=PROCESS):
    """The JSONL wire lines for ``sequences``, contiguous per execution."""
    return [
        record_to_json(record, process)
        for execution in executions(sequences)
        for record in execution.records
    ]


def write_tsv(tmp_path, sequences, name="batch.tsv", process=PROCESS):
    from repro.logs.codec import write_log_file
    from repro.logs.event_log import EventLog

    path = tmp_path / name
    write_log_file(
        EventLog(executions(sequences), process_name=process), path
    )
    return path


def make_request(method, path, body=b"", query=None, headers=None):
    return Request(
        method=method,
        path=path,
        query=dict(query or {}),
        headers=dict(headers or {}),
        body=body,
    )


class TestWire:
    def test_split_event_lines_drops_blanks(self):
        body = b'{"a": 1}\n\n{"b": 2}\n'
        assert wire.split_event_lines(body) == ['{"a": 1}', '{"b": 2}']

    def test_split_event_lines_single_object(self):
        assert wire.split_event_lines(b'{"a": 1}') == ['{"a": 1}']

    def test_split_event_lines_rejects_bad_utf8(self):
        with pytest.raises(UnicodeDecodeError):
            wire.split_event_lines(b"\xff\xfe")

    def test_dump_json_is_sorted_with_newline(self):
        payload = wire.dump_json({"b": 1, "a": 2})
        assert payload.endswith(b"\n")
        assert payload.index(b'"a"') < payload.index(b'"b"')

    def test_render_graph_block_matches_cli_stdout(
        self, tmp_path, capsys
    ):
        """The shared renderer *is* the CLI output — same bytes."""
        log = write_tsv(tmp_path, SEQUENCES)
        assert (
            main(
                [
                    "mine",
                    str(log),
                    "--algorithm",
                    "general-dag",
                    "--format",
                    "edges",
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        from repro.core.state import fold_executions

        graph = fold_executions(executions(SEQUENCES)).finish()
        block = wire.render_graph_block(
            graph, "edges", name=PROCESS, algorithm="general-dag"
        )
        assert block == stdout


    def test_cli_render_import_leaves_the_daemon_unloaded(self):
        """``mine`` renders through wire; that must not load asyncio."""
        probe = (
            "import sys, repro.cli, repro.service.wire\n"
            "print(sorted(name for name in ('repro.service.server', "
            "'asyncio') if name in sys.modules))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_package_reexports_resolve_lazily(self):
        import repro.service as service
        from repro.service import ServiceApp, TenantConfig, serve

        assert ServiceApp.__module__ == "repro.service.server"
        assert TenantConfig.__module__ == "repro.service.registry"
        assert callable(serve)
        assert set(service.__all__) >= {"ServiceClient", "ModelSnapshot"}
        with pytest.raises(AttributeError):
            service.NoSuchThing  # noqa: B018


class TestRouter:
    def test_resolves_fixed_routes(self):
        assert resolve("GET", "/healthz").handler == "healthz"
        assert resolve("GET", "/metrics").process is None
        assert resolve("GET", "/v1/tenants").handler == "tenants"

    def test_captures_percent_decoded_process(self):
        match = resolve("POST", "/v1/ship%2Fv2/events")
        assert match.handler == "events"
        assert match.process == "ship/v2"

    def test_unknown_path_is_404(self):
        with pytest.raises(RouteError) as excinfo:
            resolve("GET", "/v2/claims/model")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405_with_allow(self):
        with pytest.raises(RouteError) as excinfo:
            resolve("DELETE", "/v1/claims/events")
        assert excinfo.value.status == 405
        assert "POST" in excinfo.value.allow


class TestTenants:
    def config(self, **overrides):
        return TenantConfig(**overrides)

    def test_directory_name_is_percent_encoded(self):
        assert tenant_directory_name("ship/v2") == "ship%2Fv2"

    def test_validate_rejects_bad_process_ids(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        for bad in ("", "a\nb", "x" * 201):
            with pytest.raises(ServiceError):
                registry.validate_process_id(bad)

    def test_tenant_limit_answers_429(self, tmp_path):
        registry = TenantRegistry(
            tmp_path, self.config(), max_tenants=1
        )
        registry.get_or_create("one")
        with pytest.raises(ServiceError) as excinfo:
            registry.get_or_create("two")
        assert excinfo.value.status == 429

    def test_ingest_flush_snapshot(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        tenant, recovery = registry.get_or_create(PROCESS)
        assert recovery is not None and not recovery.covered
        tenant.ingest(event_lines(SEQUENCES))
        tenant.flush()
        snapshot = tenant.snapshot()
        assert snapshot is not None
        assert snapshot.executions == len(SEQUENCES)
        assert snapshot.algorithm == "general-dag"
        stats = tenant.stats()
        assert stats["executions"] == len(SEQUENCES)
        assert stats["open_executions"] == 0

    def test_auto_snapshot_is_the_plain_finish_in_order(self, tmp_path):
        """``auto`` finishes the labelled state and projects its graph;
        that must be the plain finish, node and edge order included."""
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create(PROCESS)
        tenant.ingest(event_lines(SEQUENCES))
        tenant.flush()
        plain = MiningState()
        for execution in executions(SEQUENCES):
            plain.update(execution)
        expected = plain.finish()
        graph = tenant.snapshot().graph
        assert tenant.close().clean
        assert list(graph.nodes()) == list(expected.nodes())
        assert list(graph.edges()) == list(expected.edges())

    def test_cyclic_logs_resolve_to_cyclic(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create("loops")
        tenant.ingest(event_lines(CYCLIC, process="loops"))
        tenant.flush()
        assert tenant.snapshot().algorithm == "cyclic"

    def test_url_owns_the_process_name(self, tmp_path):
        """Records for another process quarantine as mixed-process."""
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create(PROCESS)
        foreign = event_lines(["AB"], process="other")
        tenant.ingest(foreign)
        tenant.flush()
        assert tenant.report.reasons.get("mixed-process")

    def test_late_record_after_flush_is_quarantined(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create(PROCESS)
        lines = event_lines(["ABC"])
        tenant.ingest(lines[:-1])
        tenant.flush()
        tenant.ingest(lines[-1:])
        tenant.flush()
        assert tenant.report.reasons.get("late-record")

    def test_close_then_reopen_resumes_byte_identically(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create(PROCESS)
        tenant.ingest(event_lines(SEQUENCES))
        tenant.flush()
        envelope = tenant.state_snapshot().envelope
        receipt = tenant.close()
        assert receipt.clean
        reopened = TenantRegistry(tmp_path, self.config())
        recovered = dict(reopened.startup())
        assert PROCESS in recovered
        successor = reopened.get(PROCESS)
        assert successor.state_snapshot().envelope == envelope
        assert successor.close().clean

    def test_close_flushes_open_windows_first(self, tmp_path):
        registry = TenantRegistry(tmp_path, self.config())
        tenant, _ = registry.get_or_create(PROCESS)
        tenant.ingest(event_lines(["ABCF"]))
        assert tenant.stream.open_executions == 1
        receipt = tenant.close()
        assert receipt.clean
        assert receipt.covered_seq == 1


def run_app(tmp_path, scenario, recorder=None, **config_overrides):
    """Run ``scenario(app)`` against a started app, then shut down."""
    config = ServiceConfig(
        data_dir=tmp_path / "service-data", **config_overrides
    )

    async def runner():
        app = ServiceApp(
            config,
            **({"recorder": recorder} if recorder is not None else {}),
        )
        app.startup()
        try:
            return await scenario(app)
        finally:
            await app.shutdown()

    return asyncio.run(runner())


async def push_and_flush(app, sequences=SEQUENCES, process=PROCESS):
    body = ("\n".join(event_lines(sequences, process)) + "\n").encode()
    accepted = await app.handle(
        make_request("POST", f"/v1/{process}/events", body=body)
    )
    assert accepted.status == 202
    flushed = await app.handle(
        make_request("POST", f"/v1/{process}/flush")
    )
    assert flushed.status == 200
    return json.loads(flushed.body)


class TestApp:
    def test_events_then_flush_then_model(self, tmp_path):
        async def scenario(app):
            stats = await push_and_flush(app)
            assert stats["executions"] == len(SEQUENCES)
            assert stats["flushed_executions"] >= 1
            response = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/model")
            )
            assert response.status == 200
            assert dict(response.headers)["X-Snapshot-Seq"] == str(
                len(SEQUENCES)
            )
            document = json.loads(response.body)
            assert document["algorithm"] == "general-dag"
            assert ["A", "B"] in document["edges"]
            return document

        document = run_app(tmp_path, scenario)
        assert document["process"] == PROCESS

    def test_model_text_matches_batch_cli(self, tmp_path, capsys):
        async def scenario(app):
            await push_and_flush(app)
            response = await app.handle(
                make_request(
                    "GET",
                    f"/v1/{PROCESS}/model",
                    query={"format": "edges"},
                )
            )
            assert response.status == 200
            return response.body

        body = run_app(tmp_path, scenario)
        log = write_tsv(tmp_path, SEQUENCES)
        assert (
            main(
                [
                    "mine",
                    str(log),
                    "--algorithm",
                    "general-dag",
                    "--format",
                    "edges",
                ]
            )
            == 0
        )
        assert body == capsys.readouterr().out.encode("utf-8")

    def test_state_matches_stream_cli_state_out(self, tmp_path):
        async def scenario(app):
            await push_and_flush(app)
            response = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/state")
            )
            assert response.status == 200
            return response.body

        body = run_app(tmp_path, scenario)
        log = write_tsv(tmp_path, SEQUENCES)
        state_out = tmp_path / "cli-state.json"
        assert (
            main(
                [
                    "mine",
                    str(log),
                    "--stream",
                    "--state-out",
                    str(state_out),
                ]
            )
            == 0
        )
        assert body == state_out.read_bytes()

    def test_read_endpoints_answer_404_before_any_model(self, tmp_path):
        async def scenario(app):
            statuses = {}
            for leaf in ("model", "state"):
                response = await app.handle(
                    make_request("GET", f"/v1/nobody/{leaf}")
                )
                statuses[leaf] = response.status
            return statuses

        assert run_app(tmp_path, scenario) == {
            "model": 404,
            "state": 404,
        }

    def test_bad_requests_answer_400(self, tmp_path):
        async def scenario(app):
            empty = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/events")
            )
            bad_utf8 = await app.handle(
                make_request(
                    "POST", f"/v1/{PROCESS}/events", body=b"\xff\xfe"
                )
            )
            await push_and_flush(app)
            bad_format = await app.handle(
                make_request(
                    "GET",
                    f"/v1/{PROCESS}/model",
                    query={"format": "yaml"},
                )
            )
            return empty.status, bad_utf8.status, bad_format.status

        assert run_app(tmp_path, scenario) == (400, 400, 400)

    def test_route_errors_carry_status_and_allow(self, tmp_path):
        async def scenario(app):
            missing = await app.handle(
                make_request("GET", "/v2/nothing")
            )
            wrong = await app.handle(
                make_request("DELETE", f"/v1/{PROCESS}/events")
            )
            return missing, wrong

        missing, wrong = run_app(tmp_path, scenario)
        assert missing.status == 404
        assert wrong.status == 405
        assert dict(wrong.headers)["Allow"] == "POST"

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        async def scenario(app):
            body = (event_lines(["AB"])[0] + "\n").encode()
            request = make_request(
                "POST", f"/v1/{PROCESS}/events", body=body
            )
            first = await app.handle(request)
            second = await app.handle(request)
            flushed = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/flush")
            )
            return first, second, flushed

        first, second, flushed = run_app(
            tmp_path, scenario, queue_limit=1
        )
        assert first.status == 202
        assert second.status == 429
        assert dict(second.headers)["Retry-After"] == "1"
        assert flushed.status == 200

    def test_large_body_off_loop_decode_matches_small_batches(
        self, tmp_path
    ):
        """Bodies over the offload threshold decode in the executor
        pool; the resulting state must be byte-identical to the same
        lines pushed as many small inline-decoded bodies."""
        from repro.service.server import _OFFLOAD_BODY_BYTES

        sequences = ["ABCF", "ACDF", "ABDF", "ABCDF"] * 50
        lines = event_lines(sequences)
        body = ("\n".join(lines) + "\n").encode()
        assert len(body) >= _OFFLOAD_BODY_BYTES

        async def one_big(app):
            response = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/events", body=body)
            )
            assert response.status == 202
            flushed = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/flush")
            )
            assert json.loads(flushed.body)["executions"] == len(
                sequences
            )
            state = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/state")
            )
            return state.body

        async def many_small(app):
            for start in range(0, len(lines), 100):
                chunk = (
                    "\n".join(lines[start : start + 100]) + "\n"
                ).encode()
                assert len(chunk) < _OFFLOAD_BODY_BYTES
                response = await app.handle(
                    make_request(
                        "POST", f"/v1/{PROCESS}/events", body=chunk
                    )
                )
                assert response.status == 202
            flushed = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/flush")
            )
            assert flushed.status == 200
            state = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/state")
            )
            return state.body

        big = run_app(tmp_path / "big", one_big)
        small = run_app(
            tmp_path / "small", many_small, queue_limit=128
        )
        assert big == small

    def test_queued_format_errors_are_reported_on_flush(self, tmp_path):
        async def scenario(app):
            bad = make_request(
                "POST",
                f"/v1/{PROCESS}/events",
                body=b"this is not json\n",
            )
            assert (await app.handle(bad)).status == 202
            flushed = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/flush")
            )
            return json.loads(flushed.body)

        stats = run_app(tmp_path, scenario)
        assert stats["quarantined_lines"] == 1

    def test_healthz_and_draining(self, tmp_path):
        async def scenario(app):
            live = await app.handle(make_request("GET", "/healthz"))
            app.draining = True
            draining = await app.handle(make_request("GET", "/healthz"))
            rejected = await app.handle(
                make_request(
                    "POST", f"/v1/{PROCESS}/events", body=b"{}\n"
                )
            )
            app.draining = False
            return live, draining, rejected

        live, draining, rejected = run_app(tmp_path, scenario)
        assert live.status == 200
        assert json.loads(live.body)["status"] == "ok"
        assert draining.status == 503
        assert rejected.status == 503

    def test_metrics_endpoint_parses_and_counts(self, tmp_path):
        async def scenario(app):
            await push_and_flush(app)
            response = await app.handle(
                make_request("GET", "/metrics")
            )
            assert response.status == 200
            assert response.content_type == wire.MEDIA_PROMETHEUS
            return response.body.decode("utf-8")

        text = run_app(tmp_path, scenario, recorder=ObsRecorder())
        samples = parse_prometheus(text)
        names = {name for name, _ in samples}
        assert "repro_service_events_total" in names
        assert "repro_service_requests_total" in names
        assert "repro_service_tenants" in names

    def test_lint_endpoint_honors_config(self, tmp_path):
        """PM108 fires on the raw follows graph; ignoring it passes."""

        async def scenario(app):
            await push_and_flush(app)
            strict = await app.handle(
                make_request("POST", f"/v1/{PROCESS}/lint")
            )
            relaxed = await app.handle(
                make_request(
                    "POST",
                    f"/v1/{PROCESS}/lint",
                    body=b'{"ignore": ["PM108"]}',
                )
            )
            assert strict.status == 200
            assert relaxed.status == 200
            return json.loads(strict.body), json.loads(relaxed.body)

        strict, relaxed = run_app(tmp_path, scenario)
        assert strict["exit_code"] == 2
        codes = {
            finding["code"]
            for finding in strict["report"]["diagnostics"]
        }
        assert codes == {"PM108"}
        assert relaxed["exit_code"] == 0

    def test_lint_rejects_malformed_config(self, tmp_path):
        async def scenario(app):
            await push_and_flush(app)
            response = await app.handle(
                make_request(
                    "POST", f"/v1/{PROCESS}/lint", body=b"[not, an, obj"
                )
            )
            return response.status

        assert run_app(tmp_path, scenario) == 400

    def test_tenants_listing(self, tmp_path):
        async def scenario(app):
            await push_and_flush(app, process="alpha")
            await push_and_flush(app, process="beta")
            response = await app.handle(
                make_request("GET", "/v1/tenants")
            )
            return json.loads(response.body)

        document = run_app(tmp_path, scenario)
        names = [entry["process"] for entry in document["tenants"]]
        assert names == ["alpha", "beta"]

    def test_maintenance_flushes_idle_open_windows(self, tmp_path):
        async def scenario(app):
            body = ("\n".join(event_lines(["ABCF"])) + "\n").encode()
            await app.handle(
                make_request("POST", f"/v1/{PROCESS}/events", body=body)
            )
            worker = app._workers[PROCESS]
            await worker.drain()
            assert worker.tenant.stream.open_executions == 1
            worker.last_activity -= 3600.0
            flushed = await app.maintenance_pass()
            assert flushed == 1
            response = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/model")
            )
            return response.status

        assert run_app(tmp_path, scenario) == 200

    def test_reads_cover_every_fold_without_a_flush(self, tmp_path):
        """A read after the queue drained shows every finalized fold."""
        sequences = SEQUENCES * 3
        lines = event_lines(sequences)

        async def scenario(app):
            worker = None
            observed = []
            for start in range(0, len(lines), 7):
                body = ("\n".join(lines[start:start + 7]) + "\n").encode()
                accepted = await app.handle(
                    make_request(
                        "POST", f"/v1/{PROCESS}/events", body=body
                    )
                )
                assert accepted.status == 202
                worker = app._workers[PROCESS]
                await worker.drain()
                covered = worker.tenant.session.covered_seq
                if not covered:
                    continue
                model = await app.handle(
                    make_request("GET", f"/v1/{PROCESS}/model")
                )
                state = await app.handle(
                    make_request("GET", f"/v1/{PROCESS}/state")
                )
                assert dict(model.headers)["X-Snapshot-Seq"] == str(
                    covered
                )
                assert dict(state.headers)["X-Snapshot-Seq"] == str(
                    covered
                )
                observed.append(
                    (covered, json.loads(model.body), state.body)
                )
            return observed

        # A two-execution window finalizes executions as later ones
        # arrive, so folds land between the requests.
        observed = run_app(
            tmp_path, scenario, tenant=TenantConfig(window=2)
        )
        assert len({covered for covered, _, _ in observed}) > 1
        finalized = executions(sequences)
        for covered, document, state_body in observed:
            fresh = MiningState()
            for execution in finalized[:covered]:
                fresh.update(execution)
            graph = fresh.finish()
            assert document["edges"] == sorted(
                [str(source), str(target)]
                for source, target in graph.edges()
            )
            assert document["executions"] == covered
            assert state_body == state_envelope(fresh).encode("utf-8")

    def test_ingest_without_reads_takes_no_snapshot(self, tmp_path):
        recorder = ObsRecorder()

        async def scenario(app):
            for start in range(0, len(SEQUENCES), 2):
                body = (
                    "\n".join(event_lines(SEQUENCES[start:start + 2]))
                    + "\n"
                ).encode()
                await app.handle(
                    make_request(
                        "POST", f"/v1/{PROCESS}/events", body=body
                    )
                )
            worker = app._workers[PROCESS]
            await worker.drain()
            assert worker.tenant.session.covered_seq > 0
            taken = recorder.registry.get("repro_service_snapshots_total")
            await app.handle(make_request("GET", f"/v1/{PROCESS}/model"))
            await app.handle(make_request("GET", f"/v1/{PROCESS}/model"))
            return taken, recorder.registry.get(
                "repro_service_snapshots_total"
            ).value, recorder.registry.get(
                "repro_service_snapshot_seconds"
            ).count

        taken, after_reads, timed = run_app(
            tmp_path,
            scenario,
            recorder=recorder,
            tenant=TenantConfig(window=2),
        )
        assert taken is None
        # Two reads with no fold between them: one refresh, one timing.
        assert after_reads == 1
        assert timed == 1

    def test_shutdown_then_restart_serves_same_bytes(self, tmp_path):
        async def first(app):
            await push_and_flush(app)
            response = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/state")
            )
            return response.body

        async def second(app):
            state = await app.handle(
                make_request("GET", f"/v1/{PROCESS}/state")
            )
            model = await app.handle(
                make_request(
                    "GET",
                    f"/v1/{PROCESS}/model",
                    query={"format": "edges"},
                )
            )
            return state.body, model.status

        before = run_app(tmp_path, first)
        after, model_status = run_app(tmp_path, second)
        assert after == before
        assert model_status == 200


class TestServeCli:
    def test_snapshot_every_flag_is_gone(self, tmp_path):
        """Snapshots are read-through; there is no refresh cadence."""
        with pytest.raises(SystemExit) as exited:
            main(["serve", str(tmp_path), "--snapshot-every", "8"])
        assert exited.value.code == 2


class TestDaemon:
    """The real daemon process: the CI service job's contract."""

    @staticmethod
    def start(data_dir, port_file, *extra):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(data_dir),
                "--port",
                "0",
                "--port-file",
                str(port_file),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    @staticmethod
    def ready_client(port_file):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if port_file.exists():
                port = int(port_file.read_text().strip())
                client = ServiceClient(port=port, timeout=10.0)
                client.wait_ready(budget=10.0)
                return client
            time.sleep(0.05)
        raise ServiceUnavailable("port file never appeared")

    @staticmethod
    def stop(daemon):
        daemon.send_signal(signal.SIGTERM)
        try:
            return daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang
            daemon.kill()
            raise

    def test_serve_push_mine_parity_sigterm_resume(self, tmp_path):
        data_dir = tmp_path / "data"
        port_file = tmp_path / "port"
        daemon = self.start(data_dir, port_file)
        try:
            client = self.ready_client(port_file)
            client.push_lines(PROCESS, event_lines(SEQUENCES))
            stats = client.flush(PROCESS)
            assert stats["executions"] == len(SEQUENCES)
            model = client.model_text(PROCESS, fmt="edges")
            state = client.state_bytes(PROCESS)
            samples = parse_prometheus(client.metrics())
            assert any(
                name == "repro_service_requests_total"
                for name, _ in samples
            )
        finally:
            stdout, stderr = self.stop(daemon)
        assert daemon.returncode == 0, stderr
        assert f"checkpointed {PROCESS!r}" in stderr

        # Batch CLI parity on the same records.
        log = write_tsv(tmp_path, SEQUENCES)
        state_out = tmp_path / "cli-state.json"
        mined = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "mine",
                str(log),
                "--algorithm",
                "general-dag",
                "--format",
                "edges",
                "--stream",
                "--state-out",
                str(state_out),
            ],
            env=dict(
                os.environ,
                PYTHONPATH=str(
                    Path(__file__).resolve().parents[1] / "src"
                ),
            ),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert mined.returncode == 0, mined.stderr
        assert model == mined.stdout.encode("utf-8")
        assert state == state_out.read_bytes()

        # Restart: the recovered daemon serves the same bytes.
        restarted = self.start(data_dir, tmp_path / "port2")
        try:
            client = self.ready_client(tmp_path / "port2")
            assert client.state_bytes(PROCESS) == state
            assert client.model_text(PROCESS, fmt="edges") == model
        finally:
            stdout, stderr = self.stop(restarted)
        assert restarted.returncode == 0, stderr
        assert f"recovered {PROCESS}" in stderr

    def test_integer_past_float_range_is_a_bad_line(self, tmp_path):
        """A ``time`` too large for a float is quarantined like
        ``Infinity``; the tenant's worker keeps folding later batches
        and SIGTERM still checkpoints."""
        big = "9" * 400
        bad = [
            '{"activity": "A", "execution": "bad", "output": null, '
            f'"process": "{PROCESS}", "time": {big}, "type": "START"}}',
            f'{{"type": "START", "time": {big}, "process": "{PROCESS}", '
            '"output": null, "execution": "bad", "activity": "A"}',
        ]
        lines = event_lines(SEQUENCES)
        cut = sum(2 * len(sequence) for sequence in SEQUENCES[:3])
        batches = [lines[:cut] + bad, lines[cut:]]
        data_dir = tmp_path / "data"
        port_file = tmp_path / "port"
        daemon = self.start(data_dir, port_file)
        try:
            client = self.ready_client(port_file)
            for batch in batches:
                assert client.push_lines(PROCESS, batch).status == 202
            stats = client.flush(PROCESS)
            model = client.model_text(PROCESS, fmt="edges")
        finally:
            stdout, stderr = self.stop(daemon)
        assert daemon.returncode == 0, stderr
        assert f"checkpointed {PROCESS!r}" in stderr
        assert stats["errors"] == []
        assert stats["executions"] == len(SEQUENCES)
        assert stats["quarantined_lines"] == len(bad)
        assert stats["quarantine_reasons"] == {"bad-line": len(bad)}

        log = tmp_path / "posted.jsonl"
        log.write_text("\n".join(batches[0] + batches[1]) + "\n")
        mined = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "mine", str(log),
                "--stream", "--on-error", "skip", "--format", "edges",
            ],
            env=dict(
                os.environ,
                PYTHONPATH=str(
                    Path(__file__).resolve().parents[1] / "src"
                ),
            ),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert mined.returncode == 3, mined.stderr
        assert model == mined.stdout.encode("utf-8")
