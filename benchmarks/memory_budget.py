"""CI memory-budget smoke test for ``mine --stream``.

Generates a large synthetic ``.jsonl`` log (100k executions by
default), then mines it with the CLI's streaming path inside a
subprocess whose address space is capped hard with
``resource.setrlimit(RLIMIT_AS)`` — if out-of-core mining ever regresses
into materializing the log, the run dies on ``MemoryError`` and this
script exits non-zero.

The cap is deliberately far below what materialized mining needs at
this scale (~800 MiB peak RSS for the default cell, vs ~170 MiB
streamed), so the gate has a wide margin on both sides: streamed mining
passes comfortably, a materializing regression cannot.

The capped child runs ``python -m repro.cli mine --stream`` rather than
the mining API directly, so the budget covers the whole user-facing
path: streaming ingest, fold, finish, and rendering.

Usage::

    PYTHONPATH=src python benchmarks/memory_budget.py
    PYTHONPATH=src python benchmarks/memory_budget.py \
        --executions 100000 --limit-mb 512
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_EXECUTIONS = 100_000
DEFAULT_VERTICES = 25
DEFAULT_LIMIT_MB = 512


def _capped_cli_mine(log_path: str, limit_mb: int) -> int:
    """Run ``mine --stream`` in a child with a hard RLIMIT_AS cap."""
    cap = limit_mb * 1024 * 1024

    def arm_limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "mine",
            log_path,
            "--stream",
            "--format",
            "edges",
        ],
        preexec_fn=arm_limit,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        print(completed.stdout, end="")
        print(completed.stderr, end="", file=sys.stderr)
        print(
            f"FAIL: mine --stream exited {completed.returncode} under a "
            f"{limit_mb} MiB address-space cap — streaming mining no "
            f"longer fits the memory budget",
            file=sys.stderr,
        )
        return 1
    edges = [
        line
        for line in completed.stdout.splitlines()
        if line and not line.startswith("#")
    ]
    print(
        f"mine --stream held the {limit_mb} MiB budget "
        f"({len(edges)} edges mined)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--executions", type=int, default=DEFAULT_EXECUTIONS
    )
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument(
        "--limit-mb",
        type=int,
        default=DEFAULT_LIMIT_MB,
        help="hard RLIMIT_AS cap for the mining child (MiB)",
    )
    parser.add_argument(
        "--keep-log",
        metavar="PATH",
        help="also keep the generated log at PATH (debugging)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import stream_probe

    with tempfile.TemporaryDirectory(prefix="membudget-") as workdir:
        log_path = args.keep_log or str(Path(workdir) / "budget.jsonl")
        records = stream_probe.generate_log(
            log_path,
            executions=args.executions,
            vertices=args.vertices,
        )
        print(
            f"generated {args.executions} executions "
            f"({records} records) at {log_path}"
        )
        status = _capped_cli_mine(log_path, args.limit_mb)
        if status == 0:
            # Report the streamed peak for the CI log (uncapped probe).
            measured = stream_probe.measure(log_path, "stream")
            print(
                json.dumps(
                    {
                        "executions": args.executions,
                        "limit_mb": args.limit_mb,
                        "stream_peak_rss_kb": measured["ru_maxrss_kb"],
                        "stream_seconds": measured["seconds"],
                    }
                )
            )
        return status


if __name__ == "__main__":
    sys.exit(main())
