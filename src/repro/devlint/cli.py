"""``python -m repro.devlint`` — lint the codebase against itself.

Mirrors the ``repro-miner lint`` surface: ``--format`` selects
text/json/sarif, the exit code is 0 (clean or info-only), 1 (max
warning) or 2 (max error / unusable input), and codes are selected or
ignored by prefix.  The baseline defaults to
``<project-root>/devlint-baseline.json`` and is disabled with
``--no-baseline`` (the CI nightly mode); ``--write-baseline``
grandfathers the current findings and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence

from repro.lint.emitters import FORMAT_TEXT, FORMATS

from repro.devlint.baseline import (
    DEFAULT_BASELINE_NAME,
    baseline_from_entries,
    load_baseline,
    save_baseline,
)
from repro.devlint.emitters import render
from repro.devlint.engine import DevConfig, run_devlint
from repro.devlint.rules import all_dev_rules


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-devlint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-devlint",
        description=(
            "AST-based analyzer checking this repository's source "
            "against its durability, determinism, observability, and "
            "fault-handling contracts (RL codes; see docs/LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src/repro")],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=FORMAT_TEXT,
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help=(
            "comma-separated code prefixes to enable (e.g. RL1,RL403); "
            "default: all"
        ),
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODES",
        help="comma-separated code prefixes to disable",
    )
    parser.add_argument(
        "--project-root",
        type=Path,
        default=None,
        help=(
            "repository root for project-level artifacts such as "
            "docs/OBSERVABILITY.md and the default baseline path "
            "(default: current directory)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "baseline file of grandfathered findings (default: "
            f"<project-root>/{DEFAULT_BASELINE_NAME})"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report grandfathered findings too (CI nightly mode)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "grandfather every current finding into the baseline "
            "file and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered RL codes and exit",
    )
    return parser


def _parse_prefixes(
    values: Optional[List[str]],
) -> Optional[FrozenSet[str]]:
    if values is None:
        return None
    prefixes = {
        token.strip().upper()
        for value in values
        for token in value.split(",")
        if token.strip()
    }
    return frozenset(prefixes) or None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_dev_rules():
            print(
                f"{rule.code} {rule.name} [{rule.severity.value}] "
                f"({rule.scope}): {rule.description}"
            )
        return 0

    project_root = args.project_root or Path.cwd()
    baseline_path = args.baseline or (
        project_root / DEFAULT_BASELINE_NAME
    )
    try:
        baseline = load_baseline(baseline_path)
    except ValueError as exc:
        print(f"repro-devlint: {exc}", file=sys.stderr)
        return 2

    config = DevConfig(
        select=_parse_prefixes(args.select),
        ignore=_parse_prefixes(args.ignore) or frozenset(),
        baseline=baseline,
        use_baseline=not (args.no_baseline or args.write_baseline),
        project_root=project_root,
    )
    report = run_devlint(args.paths, config=config)

    if args.write_baseline:
        save_baseline(baseline_path, baseline_from_entries(report.entries))
        print(
            f"repro-devlint: wrote {len(report.entries)} grandfathered "
            f"finding(s) to {baseline_path}"
        )
        return 0

    print(render(report, args.output_format))
    return report.exit_code


__all__ = ["build_parser", "main"]
