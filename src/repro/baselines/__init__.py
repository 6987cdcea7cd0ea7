"""Baseline approaches the paper positions itself against.

The related-work section contrasts process-graph mining with two prior
families, both implemented here from scratch so the comparison can be
made empirically (bench ``bench_baselines.py``):

* **Sequential pattern mining** (Agrawal & Srikant 1995; Mannila et al.
  1995) — :mod:`repro.baselines.sequential`.  The paper: "sequential
  patterns allow only a total ordering of fully parallel subsets,
  whereas process graphs are richer structures"; and the goal there "is
  to discover all patterns that occur frequently" rather than one
  conformal structure.
* **Finite-state-machine process discovery** (Cook & Wolf 1995/96) —
  :mod:`repro.baselines.ktails`.  The paper: in an automaton "the same
  token (activity) may appear multiple times", whereas "an activity
  appears only once in a process graph as a vertex label" — the SABE /
  SBAE example.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.ktails import Automaton, ktails_automaton
    from repro.baselines.sequential import (
        SequentialPattern,
        mine_sequential_patterns,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "Automaton": ".ktails",
    "ktails_automaton": ".ktails",
    "SequentialPattern": ".sequential",
    "mine_sequential_patterns": ".sequential",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
