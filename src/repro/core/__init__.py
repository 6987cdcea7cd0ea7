"""The paper's mining algorithms and supporting theory.

* :mod:`repro.core.followings` — the "following" relation of Definition 3
  and the per-execution ordered-pair extraction shared by every miner;
* :mod:`repro.core.dependency` — dependence / independence (Definition 4)
  and reference dependency graphs (Definition 5);
* :mod:`repro.core.special_dag` — **Algorithm 1** (each activity in every
  execution; provably minimal conformal graph);
* :mod:`repro.core.general_dag` — **Algorithm 2** (activities may be
  optional);
* :mod:`repro.core.cyclic` — **Algorithm 3** (cycles via instance
  relabelling);
* :mod:`repro.core.noise` — frequency-threshold noise handling and the
  Section 6 threshold analysis;
* :mod:`repro.core.conformance` — Definitions 6 and 7 checks;
* :mod:`repro.core.conditions` — Problem 2, learning edge conditions;
* :mod:`repro.core.miner` — the :class:`ProcessMiner` facade.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.conditions import ConditionsMiner, MinedCondition
    from repro.core.conformance import (
        ConformanceReport,
        check_conformance,
        is_consistent,
    )
    from repro.core.cyclic import mine_cyclic
    from repro.core.dependency import DependencyRelation, dependency_relation
    from repro.core.followings import FollowRelation, follow_relation
    from repro.core.general_dag import mine_general_dag
    from repro.core.incremental import IncrementalMiner
    from repro.core.miner import MiningResult, ProcessMiner
    from repro.core.minimize import minimization_gap, minimize_conformal
    from repro.core.noise import (
        NoiseThreshold,
        optimal_threshold,
        threshold_error_probability,
    )
    from repro.core.special_dag import mine_special_dag

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "ConditionsMiner": ".conditions",
    "MinedCondition": ".conditions",
    "ConformanceReport": ".conformance",
    "check_conformance": ".conformance",
    "is_consistent": ".conformance",
    "mine_cyclic": ".cyclic",
    "DependencyRelation": ".dependency",
    "dependency_relation": ".dependency",
    "FollowRelation": ".followings",
    "follow_relation": ".followings",
    "mine_general_dag": ".general_dag",
    "IncrementalMiner": ".incremental",
    "MiningResult": ".miner",
    "ProcessMiner": ".miner",
    "minimization_gap": ".minimize",
    "minimize_conformal": ".minimize",
    "NoiseThreshold": ".noise",
    "optimal_threshold": ".noise",
    "threshold_error_probability": ".noise",
    "mine_special_dag": ".special_dag",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
