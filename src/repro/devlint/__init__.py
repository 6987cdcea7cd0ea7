"""repro.devlint — the codebase linting itself.

An AST-based (stdlib ``ast``) analyzer that checks this repository's
source against the runtime contracts the ``repro.resilience`` and
``repro.obs`` layers established:

* **RL1xx durability** — artifact writes go through ``durable_write``,
  renames carry fsync, session paths come from the session constants;
* **RL2xx determinism** — no unsorted set iteration, wall clocks, or
  lossy float formats on canonical-output paths;
* **RL3xx observability** — metric names match the declared registry
  in :mod:`repro.obs.registry`, CLI handlers open spans;
* **RL4xx fault handling** — choke points do not swallow injected
  faults.

It shares the diagnostic vocabulary and emitters of the model linter
(:mod:`repro.lint`): the same :class:`~repro.lint.diagnostics.Severity`
ladder, :class:`~repro.lint.diagnostics.Diagnostic` objects, exit-code
semantics (0/1/2), and SARIF 2.1.0 output shape.

Run it with ``python -m repro.devlint [paths] [--format sarif]``; see
``docs/LINTING.md`` ("Analyzing the analyzer") for the code catalogue.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devlint.baseline import (
        Baseline,
        baseline_from_entries,
        load_baseline,
        save_baseline,
    )
    from repro.devlint.context import (
        DevContext,
        SourceModule,
        collect_modules,
    )
    from repro.devlint.emitters import render
    from repro.devlint.engine import (
        CODE_PARSE_ERROR,
        CODE_STALE_SUPPRESSION,
        PROJECT_ARTIFACT,
        DevConfig,
        DevReport,
        run_devlint,
    )
    from repro.devlint.rules import (
        DevFinding,
        DevRule,
        all_dev_rules,
        get_dev_rule,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "Baseline": ".baseline",
    "baseline_from_entries": ".baseline",
    "load_baseline": ".baseline",
    "save_baseline": ".baseline",
    "DevContext": ".context",
    "SourceModule": ".context",
    "collect_modules": ".context",
    "render": ".emitters",
    "CODE_PARSE_ERROR": ".engine",
    "CODE_STALE_SUPPRESSION": ".engine",
    "PROJECT_ARTIFACT": ".engine",
    "DevConfig": ".engine",
    "DevReport": ".engine",
    "run_devlint": ".engine",
    "DevFinding": ".rules",
    "DevRule": ".rules",
    "all_dev_rules": ".rules",
    "get_dev_rule": ".rules",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
