"""The repository's benchmark: ``repro-miner`` as its users run it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is one kind of input log taken through both user entry
points, one after the other (see ``perfbench/NOTES.md`` for why these
inputs and what the seed-time traces showed):

``distinct``  nothing repeats.  CLI phase: ``repro-miner mine LOG.jsonl
              --format edges`` on a 100-vertex x 3,000-execution log,
              one fresh process per run.  Serve phase: ``repro-miner
              serve`` fed an all-distinct 50-vertex log, open loop at
              1,500 records/s in 25-line POSTs, model reads at 20 Hz.
``dup``       heavy repetition.  CLI phase: ``mine LOG.jsonl --stream
              --format edges`` on a pool of 200 traces over 25 vertices
              repeated 60 times.  Serve phase: a pool of 50 traces over
              50 vertices repeated, open loop at 6,000 records/s in
              25-line POSTs, model reads at 20 Hz.

Every CLI run's stdout is checked against ``repro.core.reference``; the
serve phase's flush accounting must show every execution folded and no
line quarantined, and its final model must equal ``mine --stream`` on
the same lines.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The exit status is 1 when a check failed or a ``repro-miner`` process
exited non-zero, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("distinct", "dup")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import run_workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    final = run_workloads(names, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
