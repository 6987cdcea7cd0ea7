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

__all__ = [
    "Baseline",
    "CODE_PARSE_ERROR",
    "CODE_STALE_SUPPRESSION",
    "DevConfig",
    "DevContext",
    "DevFinding",
    "DevReport",
    "DevRule",
    "PROJECT_ARTIFACT",
    "SourceModule",
    "all_dev_rules",
    "baseline_from_entries",
    "collect_modules",
    "get_dev_rule",
    "load_baseline",
    "render",
    "run_devlint",
    "save_baseline",
]
