"""Out-of-core mining probe: log generator + peak-RSS measurement.

Two subcommands, both designed to run as *subprocesses* so each
measurement sees a clean address space:

``generate``
    Write an N-execution synthetic log (Section 8.1 procedure) to disk
    *incrementally* — executions are produced in bounded batches and
    appended, so generating a 100k-execution log never holds more than
    one batch in memory.  The output format follows the file extension
    (``.jsonl`` vs the tab-separated codec).

``probe``
    Mine a log either ``materialized`` (ingest into an ``EventLog``,
    then :func:`repro.core.general_dag.mine_general_dag`) or ``stream``
    (:func:`repro.core.state.fold_executions` over the streaming ingest
    iterators, then ``finish``), and print one JSON object::

        {"mode": ..., "seconds": ..., "ru_maxrss_kb": ...,
         "nodes": ..., "edges": ..., "executions": ...}

    ``ru_maxrss`` is the process's lifetime peak, which is why the two
    modes must run in separate processes.  ``--limit-mb`` arms a hard
    ``RLIMIT_AS`` cap before mining (the CI memory-budget smoke test);
    blowing the cap raises ``MemoryError`` and exits non-zero.

The :func:`measure` helper spawns the probe subprocess and parses its
JSON — the perf harness and ``memory_budget.py`` both build on it.

Usage::

    PYTHONPATH=src python benchmarks/stream_probe.py generate big.jsonl \
        --executions 100000 --vertices 25
    PYTHONPATH=src python benchmarks/stream_probe.py probe big.jsonl \
        --mode stream
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

GENERATE_BATCH = 1000


def generate_log(
    path: str,
    executions: int,
    vertices: int = 25,
    seed: int = 0,
    process_name: str = "stream-bench",
) -> int:
    """Append-write an ``executions``-long log to ``path`` in batches.

    Every execution gets a fresh sequential id, so the log looks like a
    long-running recording rather than one repeated trace.  Returns the
    number of records written.
    """
    from dataclasses import replace

    from repro.datasets.synthetic import generate_executions
    from repro.graphs.random_dag import random_process_dag
    from repro.logs.codec import format_record
    from repro.logs.jsonl import record_to_json

    jsonl = path.endswith(".jsonl")
    graph = random_process_dag(vertices, seed=seed)
    written = 0
    records = 0
    with open(path, "w", encoding="utf-8") as handle:
        while written < executions:
            batch = min(GENERATE_BATCH, executions - written)
            # A distinct seed per batch keeps the variant mix realistic;
            # the batch log is the only thing held in memory.
            log = generate_executions(
                graph, batch, seed=seed + 1 + written,
                process_name=process_name,
            )
            for index, execution in enumerate(log):
                eid = f"{process_name}-{written + index:07d}"
                for record in execution.records:
                    record = replace(record, execution_id=eid)
                    line = (
                        record_to_json(record, process_name)
                        if jsonl
                        else format_record(record, process_name)
                    )
                    handle.write(line)
                    handle.write("\n")
                    records += 1
            written += batch
    return records


def probe(path: str, mode: str, limit_mb: int = 0) -> dict:
    """Mine ``path`` in one mode; return the measurement record.

    ``stage_seconds`` splits the wall time into ``ingest`` (reading,
    parsing, window finalization, and — streamed — variant folding) and
    ``mine`` (the graph algorithm), so a flat materialized/stream
    speedup is attributable: if both modes sink their time into
    ``ingest``, the bottleneck is decode throughput, not mining.
    """
    if limit_mb:
        cap = limit_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    stages = {}
    started = time.perf_counter()
    if mode == "materialized":
        from repro.core.general_dag import mine_general_dag
        from repro.logs.codec import ingest_log_file
        from repro.logs.jsonl import ingest_log_jsonl_file

        reader = (
            ingest_log_jsonl_file
            if path.endswith(".jsonl")
            else ingest_log_file
        )
        log = reader(path).log
        stages["ingest"] = round(time.perf_counter() - started, 6)
        mark = time.perf_counter()
        graph = mine_general_dag(log)
        stages["mine"] = round(time.perf_counter() - mark, 6)
        executions = len(log)
    elif mode == "stream":
        if path.endswith(".jsonl"):
            # The fused block fold is the production out-of-core path
            # for JSON lines (``mine --stream``); the tab codec still
            # streams execution by execution.
            from repro.logs.jsonl import fold_log_jsonl_file

            state = fold_log_jsonl_file(path).state
        else:
            from repro.core.state import fold_executions
            from repro.logs.codec import iter_ingest_log_file

            state = fold_executions(iter_ingest_log_file(path))
        stages["ingest"] = round(time.perf_counter() - started, 6)
        mark = time.perf_counter()
        graph = state.finish()
        stages["mine"] = round(time.perf_counter() - mark, 6)
        executions = state.execution_count
    else:
        raise ValueError(f"unknown mode {mode!r}")
    seconds = time.perf_counter() - started
    return {
        "mode": mode,
        "seconds": round(seconds, 6),
        "stage_seconds": stages,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "edge_set": sorted(map(list, graph.edge_set())),
        "executions": executions,
    }


def measure(path: str, mode: str, limit_mb: int = 0) -> dict:
    """Run the probe in a fresh subprocess and parse its JSON line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "probe",
        path,
        "--mode",
        mode,
    ]
    if limit_mb:
        command += ["--limit-mb", str(limit_mb)]
    completed = subprocess.run(
        command, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write an N-execution synthetic log, batched"
    )
    generate.add_argument("output", help="log path (.jsonl or codec)")
    generate.add_argument("--executions", type=int, default=100_000)
    generate.add_argument("--vertices", type=int, default=25)
    generate.add_argument("--seed", type=int, default=0)

    probe_cmd = commands.add_parser(
        "probe", help="mine a log in one mode; print a JSON measurement"
    )
    probe_cmd.add_argument("log", help="log path (.jsonl or codec)")
    probe_cmd.add_argument(
        "--mode", choices=["materialized", "stream"], required=True
    )
    probe_cmd.add_argument(
        "--limit-mb",
        type=int,
        default=0,
        help="arm a hard RLIMIT_AS cap (MiB) before mining; 0 = off",
    )

    args = parser.parse_args(argv)
    if args.command == "generate":
        records = generate_log(
            args.output,
            executions=args.executions,
            vertices=args.vertices,
            seed=args.seed,
        )
        print(
            f"wrote {args.executions} executions ({records} records) "
            f"to {args.output}"
        )
        return 0
    result = probe(args.log, args.mode, limit_mb=args.limit_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
