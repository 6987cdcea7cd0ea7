"""Flowmark-style workflow engine simulator.

The paper's logs come from an IBM Flowmark installation; this subpackage is
the substitute substrate (see DESIGN.md §5).  It executes a
:class:`~repro.model.process.ProcessModel` with the Section 2 semantics:

* when an activity terminates, its output ``o(u)`` is computed and the
  Boolean functions on its outgoing edges are evaluated on that output;
* a successor is *ready* once all its incoming edges carry a verdict and at
  least one is true (OR-join with dead-path elimination, so the sink always
  terminates the run — mirroring Flowmark's dead-path mechanism);
* ready activities wait in a queue for "the next available agent"
  (a configurable agent pool; more than one agent yields genuinely
  overlapping activities in the log).

The engine requires an acyclic model, matching both Flowmark's process
language and the paper's observation that acyclicity "is frequently the
case in practice"; cyclic *logs* for Algorithm 3 are produced by the
random-walk generator in :mod:`repro.datasets.cyclic`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.scheduler import AgentPool, SimulationClock
    from repro.engine.simulator import SimulationConfig, WorkflowSimulator
    from repro.engine.stats import (
        RunStats,
        SimulationStats,
        pool_sizing_table,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "AgentPool": ".scheduler",
    "SimulationClock": ".scheduler",
    "SimulationConfig": ".simulator",
    "WorkflowSimulator": ".simulator",
    "RunStats": ".stats",
    "SimulationStats": ".stats",
    "pool_sizing_table": ".stats",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
