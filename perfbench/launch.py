"""Run ``repro-miner`` in this process and record when it got where.

Usage::

    python3 perfbench/launch.py --result R.json [--trace-out T.json] \
        -- mine LOG.jsonl --format edges
    python3 perfbench/launch.py --result R.json --import-only

The parent takes its clock reading just before it spawns this process;
``ready`` below (``repro.cli`` imported) minus that reading is the
CLI's set-up time.  ``main_start``/``main_end`` bracket
``repro.cli.main`` (the CLI's timed region; a traced run's includes
installing the tracer) and ``cpu_s`` is this
process's CPU time over that region; ``hwm_kib`` is its peak resident
set (``VmHWM``) when ``main`` returns.  The parent's ``wait4`` rusage
would not do: on Linux a child's ``ru_maxrss`` also holds the resident
set its parent had when it forked, so the benchmark's own memory would
show in it.  With ``--trace-out`` the span
tracer of :mod:`spans` is installed before ``main`` runs and its spans
are written after it returns -- for ``serve`` that is after SIGTERM
drained the daemon.  All clock readings are ``time.monotonic()``, which
is system-wide, so the parent can compare them with its own.  The
process exits with ``main``'s status.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def vm_hwm_kib(pid="self") -> int:
    """Peak resident set of ``pid``'s memory, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for {pid}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    import repro.cli

    result = {"ready": time.monotonic()}
    if not args.import_only:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        cpu = _cpu_seconds()
        result["main_start"] = time.monotonic()
        tracer = None
        if args.trace_out:
            # Inside the timed region: installing imports the modules
            # ``main`` would otherwise import lazily while it is timed.
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            status = repro.cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
        result["main_end"] = time.monotonic()
        result["cpu_s"] = _cpu_seconds() - cpu
        result["hwm_kib"] = vm_hwm_kib()
        result["status"] = status
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(
                args.trace_out,
                main_thread=threading.main_thread().ident,
                extra={"main_start": result["main_start"],
                       "main_end": result["main_end"]},
            )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    # The child exits as ``repro-miner`` would: ``mine`` prints its model
    # before it returns 2 (verification failed) or 3 (records dropped).
    return result.get("status", 0)


if __name__ == "__main__":
    sys.exit(main())
