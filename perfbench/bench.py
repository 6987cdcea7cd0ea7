"""Workloads, phases and metrics of the benchmark (see ``run.py``)."""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from inputs import (
    batches, check_cli_output, check_flush, finalized_through, make_log)
from launch import vm_hwm_kib
from loadgen import LoadPlan, pending_batches, run_plan
from spans import summarize
from stats import TooFewSamples, median, percentile, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Share of ``--seconds`` the CLI phase spends spawning runs, and the
#: share the serve phase's open loop lasts.
CLI_SHARE = 0.4
SERVE_SHARE = 0.45
#: Fresh CLI processes at least per half phase, whatever
#: ``--seconds`` says.
MIN_CLI_RUNS = 2
#: Import-only spawns added to each half phase's set-up samples.
SETUP_SPAWNS = 3
#: Daemon boots per serve phase (the last one takes the load).
SERVE_BOOTS = 9
#: Reads start this long after the batch that finalizes the first
#: execution is due (before it, the tenant has no model to serve).
READ_DELAY_S = 0.25
#: Generator lateness (p99, max) beyond which the generator fell
#: behind its schedule and the open-loop run is invalid.  A single
#: scheduling hiccup on a shared host stays under these; a generator
#: that cannot keep its rate does not.
LATE_P99_LIMIT_S = 0.025
LATE_MAX_LIMIT_S = 0.25
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class CliSpec:
    args: Tuple[str, ...]
    vertices: int
    pool: int
    repeats: int


@dataclass(frozen=True)
class ServeSpec:
    vertices: int
    #: Distinct executions generated (the log is cut to the phase's
    #: record count, so a pool this size is never exhausted when
    #: ``repeats`` is 1).
    pool: int
    repeats: int
    rate: float  # records per second
    lines_per_post: int
    read_hz: float


WORKLOADS: Dict[str, Tuple[CliSpec, ServeSpec]] = {
    "distinct": (
        CliSpec(("--format", "edges"), vertices=100, pool=3000, repeats=1),
        ServeSpec(vertices=50, pool=4000, repeats=1, rate=1500.0,
                  lines_per_post=25, read_hz=20.0),
    ),
    "dup": (
        CliSpec(("--stream", "--format", "edges"), vertices=25, pool=200,
                repeats=60),
        ServeSpec(vertices=50, pool=50, repeats=10_000, rate=6000.0,
                  lines_per_post=25, read_hz=20.0),
    ),
}

#: name -> (unit, better, bound).  ``setup_s`` is the CLI's set-up plus
#: the daemon's (each a median, printed as ``cli_setup_s`` and
#: ``serve_setup_s``).  Everything a CPU runs is given the
#: widest bound: on a shared 2-core host the same code's CPU-bound
#: figures swing by up to a quarter between minutes (NOTES.md).  The
#: tails ``ingest_p99_ms`` and ``read_p95_ms`` are measured and printed
#: with every run but are not declared: on ``dup`` they moved by half
#: their median between runs of the same code.  ``ingest_p50_ms`` and
#: ``read_p50_ms`` are printed but not declared either: they move with
#: the host's drift more than the CPU figures do, and on ``distinct``
#: their quartile distance over ten runs reached 0.21 and 0.25.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "mine_records_per_s": ("1/s", "higher", 0.25),
    "mine_cpu_us_per_record": ("us", "lower", 0.25),
    "mine_peak_rss_mib": ("MiB", "lower", 0.1),
    "serve_records_per_s": ("1/s", "higher", 0.05),
    "serve_cpu_us_per_record": ("us", "lower", 0.25),
    "serve_peak_rss_mib": ("MiB", "lower", 0.1),
    "visible_p50_ms": ("ms", "lower", 0.25),
    "visible_p95_ms": ("ms", "lower", 0.25),
}

#: Layer shares per phase.  The CLI never journals and the daemon never
#: lints under this load, so those shares would be 0 by construction.
_CLI_SHARES = tuple(f"{layer}.share" for layer in (
    "logs", "core", "lint", "analysis", "service"))
_SERVE_SHARES = tuple(f"{layer}.share" for layer in (
    "logs", "core", "resilience", "service"))
_CLI_LAYER = (
    "logs.decode.self_s", "logs.decode.records",
    "core.fold.self_s", "core.fold.executions", "core.fold.memo_hit_ratio",
    "core.mine.self_s", "core.mine.calls", "core.mine.variants",
    "core.mine.reduction_hit_ratio",
    "lint.verify.self_s", "analysis.coverage.self_s",
    "service.render.self_s", "service.render.calls",
) + _CLI_SHARES + ("trace.overhead_pct",)
_SERVE_LAYER = (
    "logs.decode.self_s", "logs.decode.records",
    "core.fold.self_s", "core.fold.executions", "core.fold.memo_hit_ratio",
    "core.mine.self_s", "core.mine.calls", "core.mine.variants",
    "core.mine.reduction_hit_ratio",
    "service.render.self_s", "service.render.calls",
    "service.ingest.self_s", "service.ingest.batches",
    "service.queue.depth_max",
    "resilience.journal.appends", "resilience.journal.self_s",
    "resilience.journal.bytes_per_record",
    "resilience.checkpoint.count", "resilience.checkpoint.self_s",
    "service.snapshot.refreshes", "service.snapshot.self_s",
    "service.snapshot.finish_s", "service.snapshot.envelope_s",
    "service.snapshot.seen_ratio",
    "service.loop.blocked_s", "service.lock.wait_s",
) + _SERVE_SHARES + ("trace.overhead_pct",)


def _layer_unit(name: str) -> Tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_ratio"):
        return "ratio", "higher"
    if name.endswith(".share"):
        return "ratio", "lower"
    if name.endswith("_pct"):
        return "%", "lower"
    if name.endswith("bytes_per_record"):
        return "B/record", "lower"
    if name.endswith((".records", ".executions")):
        return "count", "higher"
    return "count", "lower"


PER_LAYER: Dict[str, Tuple[str, str]] = {
    f"{phase}.{name}": _layer_unit(name)
    for phase, names in (("mine", _CLI_LAYER), ("serve", _SERVE_LAYER))
    for name in names
}


class Run:
    """One benchmark run's working directory, counters and findings."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench_run" / (
            f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.table: List[Tuple[str, float, str, str]] = []
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        self._spawned = 0

    def note(self, ok: bool, problem: str = "") -> None:
        """Count one attempted operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.problems.append(problem)

    def report(self, name: str, value: float, unit: str,
               samples: str = "") -> None:
        self.metrics[name] = value
        self.table.append((name, value, unit, samples))

    def path(self, name: str) -> Path:
        return self.work / name

    # --------------------------------------------------------------
    # Child processes
    # --------------------------------------------------------------
    def launch(self, argv: Sequence[str], trace_out: Optional[Path] = None,
               stdout=subprocess.DEVNULL, import_only: bool = False):
        """Start ``launch.py`` around ``repro-miner argv``."""
        self._spawned += 1
        result = self.path(f"result-{self._spawned}.json")
        command = [sys.executable, str(HERE / "launch.py"),
                   "--result", str(result)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        if import_only:
            command.append("--import-only")
        else:
            command += ["--", *argv]
        stderr = open(self.path(f"stderr-{self._spawned}.txt"), "wb")
        try:
            spawned = time.monotonic()
            process = subprocess.Popen(
                command, stdout=stdout, stderr=stderr, env=self.env,
                cwd=self.work)
        finally:
            stderr.close()
        return process, spawned, result

    def reap(self, process, deadline: float) -> None:
        """Wait for the child; kill it past ``deadline``."""
        while process.poll() is None:
            if time.monotonic() > deadline:
                process.kill()
                process.wait()
                return
            time.sleep(0.005)

    def cli_once(self, argv: Sequence[str], log, traced: bool) -> dict:
        """One fresh ``repro-miner`` process; checked, measured."""
        out_path = self.path("stdout.txt")
        trace_out = self.path("trace.json") if traced else None
        with open(out_path, "wb") as stdout:
            process, spawned, result_path = self.launch(
                argv, trace_out=trace_out, stdout=stdout)
            self.reap(process, time.monotonic() + CHILD_TIMEOUT_S)
        problems = []
        if process.returncode != 0:
            problems.append(f"exit status {process.returncode}")
        if not problems:
            problems = check_cli_output(
                out_path.read_text(encoding="utf-8"), log)
        self.note(not problems, f"{argv[0]}: {'; '.join(problems)}")
        if problems or not result_path.exists():
            return {"ok": False}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        elapsed = result["main_end"] - result["main_start"]
        sample = {
            "ok": True,
            "setup": result["ready"] - spawned,
            "rps": log.records / elapsed,
            "cpu_us": result["cpu_s"] / log.records * 1e6,
            "rss_mib": result["hwm_kib"] / 1024.0,
            "elapsed": elapsed,
        }
        if traced:
            document = json.loads(trace_out.read_text(encoding="utf-8"))
            sample["layers"] = summarize(document, elapsed, log.records)
        return sample

    def import_once(self) -> float:
        process, spawned, result_path = self.launch((), import_only=True)
        self.reap(process, time.monotonic() + CHILD_TIMEOUT_S)
        ok = process.returncode == 0 and result_path.exists()
        self.note(ok, f"import-only spawn: exit {process.returncode}")
        if not ok:
            return math.nan
        return json.loads(result_path.read_text())["ready"] - spawned

    # --------------------------------------------------------------
    # CLI phase
    # --------------------------------------------------------------
    def cli_input(self, spec: CliSpec):
        """Write the CLI phase's log; return (argv, log)."""
        log = make_log(self.path("cli.jsonl"), spec.vertices, spec.pool,
                       repeats=spec.repeats, seed=self.seed)
        self.inputs("mine", log)
        return ["mine", str(log.path), *spec.args], log

    def cli_samples(self, argv: Sequence[str], log, budget_s: float,
                    traced_first: bool = False):
        """Fresh CLI processes for ``budget_s``; (runs, set-up samples).

        A traced run alternates traced and untraced processes, so the
        tracing overhead comes from the same stretch of time;
        ``traced_first`` picks which kind opens the half phase, so that
        neither kind always runs first after a phase change.
        """
        setups = [self.import_once() for _ in range(SETUP_SPAWNS)]
        samples: List[dict] = []
        deadline = time.monotonic() + budget_s
        runs = 0
        minimum = MIN_CLI_RUNS * (2 if self.trace else 1)
        while runs < minimum or time.monotonic() < deadline:
            traced = self.trace and (runs % 2 == 1) != traced_first
            sample = self.cli_once(argv, log, traced)
            runs += 1
            if sample["ok"]:
                sample["traced"] = traced
                samples.append(sample)
                setups.append(sample["setup"])
        return samples, [s for s in setups if not math.isnan(s)]

    def cli_report(self, samples: List[dict], setups: List[float]) -> None:
        plain = [s for s in samples if not s["traced"]]
        traced_samples = [s for s in samples if s["traced"]]
        setups = [s for s in setups if not math.isnan(s)]
        if not plain or (self.trace and not traced_samples):
            self.problems.append("no successful CLI run")
            return
        count = f"n={len(plain)}"
        self.report("cli_setup_s", median(setups), "s", f"n={len(setups)}")
        self.report("mine_records_per_s",
                    median([s["rps"] for s in plain]), "1/s", count)
        self.report("mine_cpu_us_per_record",
                    median([s["cpu_us"] for s in plain]), "us", count)
        self.report("mine_peak_rss_mib",
                    median([s["rss_mib"] for s in plain]), "MiB", count)
        if self.trace:
            layers = {
                name: median([s["layers"][name] for s in traced_samples])
                for name in traced_samples[0]["layers"]
            }
            traced_rps = median([s["rps"] for s in traced_samples])
            untraced_rps = self.metrics["mine_records_per_s"]
            layers["trace.overhead_pct"] = (
                (untraced_rps - traced_rps) / untraced_rps * 100.0)
            self.layer_report("mine", layers,
                              median([s["elapsed"] for s in traced_samples]))

    # --------------------------------------------------------------
    # Serve phase
    # --------------------------------------------------------------
    def boot(self, data_dir: Path, trace_out: Optional[Path] = None):
        """Start the daemon; return (process, port, set-up seconds)."""
        port_file = data_dir.with_suffix(".port")
        process, spawned, _ = self.launch(
            ["serve", str(data_dir), "--port", "0",
             "--port-file", str(port_file)],
            trace_out=trace_out)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and process.poll() is None:
            port = _read_port(port_file)
            if port and _healthy(port):
                return process, port, time.monotonic() - spawned
            time.sleep(0.005)
        self.stop(process)
        raise RuntimeError("daemon did not become ready")

    def stop(self, process) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def serve_phase(self, spec: ServeSpec,
                    tenant: Optional[str] = None) -> None:
        halves = (False, True) if self.trace else (False,)
        load_s = SERVE_SHARE * self.seconds / len(halves)
        log = make_log(
            self.path("serve.jsonl"), spec.vertices, spec.pool,
            repeats=spec.repeats, seed=self.seed + 1000,
            max_records=int(spec.rate * load_s), keep_lines=True)
        self.inputs("serve", log)
        tenant = tenant or log.process
        lines = [line.rstrip("\n") for line in log.lines]
        bodies = batches(lines, spec.lines_per_post)
        finalized = finalized_through(tenant, bodies)
        expected = self.cli_expected(log)
        setups = []
        for _ in range(SERVE_BOOTS - 1):
            process, _, setup = self.boot(self.path(f"boot-{len(setups)}"))
            self.stop(process)
            self.note(process.returncode == 0,
                      f"daemon exit {process.returncode}")
            setups.append(setup)
        loads = {}
        for traced in halves:
            data_dir = self.path(f"data-{int(traced)}")
            trace_out = self.path("serve-trace.json") if traced else None
            process, port, setup = self.boot(data_dir, trace_out)
            setups.append(setup)
            try:
                loads[traced] = self.load(
                    process, port, tenant, spec, bodies, finalized,
                    log, expected)
            finally:
                self.stop(process)
            self.note(process.returncode == 0,
                      f"daemon exit {process.returncode}")
            if traced:
                document = json.loads(trace_out.read_text())
                loads[traced]["trace"] = document
        self.report("serve_setup_s", median(setups), "s",
                    f"n={len(setups)}")
        self.serve_metrics(loads[False])
        if self.trace:
            self.serve_layers(loads[True], loads[False], log.records)

    def cli_expected(self, log) -> bytes:
        """``mine --stream`` stdout for the serve log (untimed)."""
        out_path = self.path("expected.txt")
        with open(out_path, "wb") as stdout:
            process, _, _ = self.launch(
                ["mine", str(log.path), "--stream", "--format", "edges"],
                stdout=stdout)
            self.reap(process, time.monotonic() + CHILD_TIMEOUT_S)
        self.note(process.returncode == 0,
                  f"mine --stream reference: exit {process.returncode}")
        return out_path.read_bytes()

    def load(self, process, port: int, tenant: str, spec: ServeSpec,
             bodies, finalized, log, expected: bytes) -> dict:
        """One open-loop phase against a ready daemon."""
        plan = LoadPlan(
            host="127.0.0.1", port=port,
            process_path=f"/v1/{quote(tenant, safe='')}",
            bodies=[("\n".join(body) + "\n").encode("utf-8")
                    for body in bodies],
            post_interval=spec.lines_per_post / spec.rate,
            read_interval=1.0 / spec.read_hz,
            read_from=READ_DELAY_S + spec.lines_per_post / spec.rate * next(
                (i for i, count in enumerate(finalized) if count), 0),
            seed=self.seed,
        )
        cpu = {}

        def on_start() -> None:
            cpu["start"] = _cpu_ticks(process.pid)

        exchanges = asyncio.run(run_plan(plan, on_start))
        cpu["end"] = _cpu_ticks(process.pid)
        hwm_kib = vm_hwm_kib(process.pid)
        failures = Counter()
        for exchange in exchanges:
            self.note(exchange.ok)
            if not exchange.ok:
                failures[exchange.kind, exchange.status] += 1
        for (kind, status), count in sorted(failures.items()):
            self.problems.append(
                f"{count} {kind} requests failed (status {status or 'none'})")
        flush = next(e for e in exchanges if e.kind == "flush")
        problems = []
        if flush.ok:
            problems += check_flush(json.loads(flush.body),
                                    log.executions)
        status, body = _get(port, f"{plan.process_path}/model?format=edges")
        if status != 200 or body != expected:
            problems.append(
                f"final model (status {status}) differs from "
                "mine --stream on the same lines")
        self.note(not problems, "; ".join(problems))
        return {
            "exchanges": exchanges,
            "finalized": finalized,
            "cpu_s": (cpu["end"] - cpu["start"]) / _CLK_TCK,
            "hwm_mib": hwm_kib / 1024.0,
            "records": log.records,
            "window": (exchanges[0].due, flush.done),
        }

    def serve_metrics(self, load: dict) -> None:
        exchanges = load["exchanges"]
        posts = [e for e in exchanges if e.kind == "post"]
        reads = [e for e in exchanges if e.kind == "read"]
        flush = next(e for e in exchanges if e.kind == "flush")
        records = load["records"]
        late = [e.late for e in exchanges]
        late_p99 = percentile(late, 0.99)
        if late_p99 > LATE_P99_LIMIT_S or max(late) > LATE_MAX_LIMIT_S:
            self.problems.append(
                f"generator fell behind: p99 {late_p99 * 1e3:.1f} ms, "
                f"max {max(late) * 1e3:.1f} ms late (run invalid)")
        begin, end = load["window"]
        if flush.ok:
            self.report("serve_records_per_s", records / (end - begin),
                        "1/s", f"records={records}")
        self.report("serve_cpu_us_per_record",
                    load["cpu_s"] / records * 1e6, "us",
                    f"records={records}")
        self.report("serve_peak_rss_mib", load["hwm_mib"], "MiB")
        visible, censored = visibility(posts, reads, load["finalized"])
        for name, values, q in (
            ("ingest_p50_ms", [e.latency for e in posts], 0.5),
            ("ingest_p99_ms", [e.latency for e in posts], 0.99),
            ("read_p50_ms", [e.latency for e in reads], 0.5),
            ("read_p95_ms", [e.latency for e in reads], 0.95),
            ("visible_p50_ms", visible, 0.5),
            ("visible_p95_ms", visible, 0.95),
        ):
            try:
                value = tail(values, q) * 1e3
            except TooFewSamples as exc:
                # A traced run splits the load in two; its end-to-end
                # numbers are not reported, so short tails are fine.
                if not self.trace:
                    self.problems.append(f"{name}: {exc}")
                continue
            samples = f"n={len(values)}"
            if name.startswith("visible"):
                samples += f" censored={censored}"
            self.report(name, value, "ms", samples)
        self.table.append((
            "generator_late_max_ms", max(late) * 1e3, "ms",
            f"p99={late_p99 * 1e3:.2f} ms n={len(late)}"))

    def serve_layers(self, traced: dict, plain: dict, records: int) -> None:
        begin, end = traced["window"]
        document = traced["trace"]
        layers = summarize(document, end - begin, records,
                           window=(begin, end))
        posts = [e for e in traced["exchanges"] if e.kind == "post"]
        reads = [e for e in traced["exchanges"]
                 if e.kind == "read" and e.ok]
        layers["service.queue.depth_max"] = float(
            max((pending_batches(e) for e in posts), default=0))
        seen = {e.seq for e in reads}
        layers["service.snapshot.seen_ratio"] = (
            len(seen) / layers["service.snapshot.refreshes"]
            if layers["service.snapshot.refreshes"] else 0.0)
        cpu_plain = plain["cpu_s"] / plain["records"]
        cpu_traced = traced["cpu_s"] / traced["records"]
        layers["trace.overhead_pct"] = (
            (cpu_traced - cpu_plain) / cpu_plain * 100.0)
        self.layer_report("serve", layers, end - begin)

    def layer_report(self, phase: str, layers: Dict[str, float],
                     wall_s: float) -> None:
        names = _CLI_LAYER if phase == "mine" else _SERVE_LAYER
        for name in names:
            unit, _ = PER_LAYER[f"{phase}.{name}"]
            self.report(f"{phase}.{name}", layers[name], unit,
                        f"of {wall_s:.3f} s" if name.endswith("share")
                        else "")

    def inputs(self, phase: str, log) -> None:
        facts = " ".join(f"{k}={v}" for k, v in log.facts().items())
        self.table.append((f"{phase}_input", float(log.records), "records",
                           facts))

    # --------------------------------------------------------------
    def execute(self) -> dict:
        cli_spec, serve_spec = WORKLOADS[self.workload]
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            # The CLI runs before and after the serve phase, so its
            # medians span the whole run rather than one stretch of a
            # shared machine's speed.
            argv, log = self.cli_input(cli_spec)
            budget = CLI_SHARE * self.seconds / 2
            first = self.cli_samples(argv, log, budget)
            self.serve_phase(serve_spec)
            second = self.cli_samples(argv, log, budget, traced_first=True)
            self.cli_report(first[0] + second[0], first[1] + second[1])
            if {"cli_setup_s", "serve_setup_s"} <= self.metrics.keys():
                # The workload's set-up: both entry points made ready.
                self.report("setup_s", self.metrics["cli_setup_s"]
                            + self.metrics["serve_setup_s"], "s",
                            "cli_setup_s + serve_setup_s")
        except (OSError, RuntimeError, ValueError, KeyError) as exc:
            self.problems.append(f"run aborted: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass
        wanted = PER_LAYER if self.trace else END_TO_END
        missing = [name for name in wanted if name not in self.metrics]
        if missing:
            self.problems.append(f"metrics not measured: {missing}")
        units = {name: spec[0] for name, spec in wanted.items()}
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in wanted if name in self.metrics
            },
        }

    def print_table(self) -> None:
        print(f"== {self.workload} seed={self.seed} "
              f"{'traced' if self.trace else 'untraced'}")
        for name, value, unit, samples in self.table:
            print(f"  {name:<42} {value:>14.4f} {unit:<9} {samples}")
        ratio = self.failed / self.attempted if self.attempted else 0.0
        print(f"  {'failed_ratio':<42} {ratio:>14.4f} {'ratio':<9} "
              f"{self.failed}/{self.attempted}")
        for problem in self.problems:
            print(f"  problem: {problem}")


def visibility(posts, reads, finalized) -> Tuple[List[float], int]:
    """Ack-to-visible seconds per batch, and how many stayed unseen.

    Batch ``i`` is visible at the answer to the first read *sent* after
    its 202 whose ``X-Snapshot-Seq`` is at least ``F(i)``.  A batch
    that finalized nothing yet (``F(i) == 0``) has nothing to show; one
    never covered by a read before the reads stopped is censored (the
    daemon refreshes its snapshot every 64 folds, so the last batches
    become visible only with the flush).  A failed POST is ``inf``.
    """
    answered = sorted(
        (e.sent, e.done, e.seq) for e in reads if e.ok and e.seq is not None)
    visible: List[float] = []
    censored = 0
    cursor = 0
    for post in sorted(posts, key=lambda e: e.index):
        need = finalized[post.index]
        if not post.ok:
            visible.append(math.inf)
            continue
        if need == 0:
            continue
        while cursor < len(answered) and answered[cursor][0] <= post.done:
            cursor += 1
        for sent, done, seq in answered[cursor:]:
            if seq >= need:
                visible.append(done - post.done)
                break
        else:
            censored += 1
    return visible, censored


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_ticks(pid: int) -> int:
    """utime + stime of ``pid`` (all threads), in clock ticks."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def _read_port(path: Path) -> Optional[int]:
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    return int(text) if text.isdigit() else None


def _get(port: int, path: str) -> Tuple[int, bytes]:
    connection = HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _healthy(port: int) -> bool:
    try:
        return _get(port, "/healthz")[0] == 200
    except OSError:
        return False


def run_workloads(names: Sequence[str], seed: int, seconds: float,
                  trace: bool) -> dict:
    """Run each workload, print its table; return the final document."""
    results = {}
    for name in names:
        run = Run(name, seed, seconds, trace)
        results[name] = run.execute()
        run.print_table()
        sys.stdout.flush()
    if len(results) == 1:
        return results[names[0]]
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }
