"""repro — a reproduction of *Mining Process Models from Workflow Logs*.

Agrawal, Gunopulos, Leymann (EDBT 1998).  The package mines process model
graphs (and Boolean edge conditions) from workflow execution logs, and
ships every substrate the paper's evaluation needs: a directed-graph
library, a process-model definition language, a Flowmark-style workflow
simulator, synthetic and simulated-Flowmark dataset generators, a decision
tree learner, and evaluation metrics.

Quickstart
----------
>>> from repro import EventLog, ProcessMiner
>>> log = EventLog.from_sequences(["ABCDE", "ACDBE", "ACBDE"])
>>> result = ProcessMiner().mine(log)   # Example 6 -> Figure 3
>>> sorted(result.graph.edges())
[('A', 'B'), ('A', 'C'), ('B', 'E'), ('C', 'D'), ('D', 'E')]

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "1.0.0"

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
    from repro.analysis.diffing import ModelLogDiff, diff_against_log
    from repro.core.general_dag import MiningTrace, mine_general_dag
    from repro.core.incremental import IncrementalMiner
    from repro.core.miner import MiningResult, ProcessMiner
    from repro.core.noise import optimal_threshold, threshold_error_probability
    from repro.core.special_dag import mine_special_dag
    from repro.engine.simulator import SimulationConfig, WorkflowSimulator
    from repro.errors import ReproError
    from repro.graphs.compare import EdgeComparison, compare_edges
    from repro.graphs.digraph import DiGraph
    from repro.logs.codec import ingest_log_file, read_log_file, write_log_file
    from repro.logs.event_log import EventLog
    from repro.logs.ingest import (
        IngestLimits,
        IngestReport,
        IngestResult,
        Quarantine,
    )
    from repro.logs.events import EventRecord
    from repro.logs.execution import Execution
    from repro.logs.noise import NoiseConfig, NoiseInjector
    from repro.model.builder import ProcessBuilder
    from repro.model.evolution import EvolutionResult, evolve_model
    from repro.model.process import ProcessModel
    from repro.model.serialize import load_model, save_model

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "ConditionsMiner": ".core.conditions",
    "MinedCondition": ".core.conditions",
    "ConformanceReport": ".core.conformance",
    "check_conformance": ".core.conformance",
    "is_consistent": ".core.conformance",
    "mine_cyclic": ".core.cyclic",
    "DependencyRelation": ".core.dependency",
    "dependency_relation": ".core.dependency",
    "FollowRelation": ".core.followings",
    "follow_relation": ".core.followings",
    "ModelLogDiff": ".analysis.diffing",
    "diff_against_log": ".analysis.diffing",
    "MiningTrace": ".core.general_dag",
    "mine_general_dag": ".core.general_dag",
    "IncrementalMiner": ".core.incremental",
    "MiningResult": ".core.miner",
    "ProcessMiner": ".core.miner",
    "optimal_threshold": ".core.noise",
    "threshold_error_probability": ".core.noise",
    "mine_special_dag": ".core.special_dag",
    "SimulationConfig": ".engine.simulator",
    "WorkflowSimulator": ".engine.simulator",
    "ReproError": ".errors",
    "EdgeComparison": ".graphs.compare",
    "compare_edges": ".graphs.compare",
    "DiGraph": ".graphs.digraph",
    "ingest_log_file": ".logs.codec",
    "read_log_file": ".logs.codec",
    "write_log_file": ".logs.codec",
    "EventLog": ".logs.event_log",
    "IngestLimits": ".logs.ingest",
    "IngestReport": ".logs.ingest",
    "IngestResult": ".logs.ingest",
    "Quarantine": ".logs.ingest",
    "EventRecord": ".logs.events",
    "Execution": ".logs.execution",
    "NoiseConfig": ".logs.noise",
    "NoiseInjector": ".logs.noise",
    "ProcessBuilder": ".model.builder",
    "EvolutionResult": ".model.evolution",
    "evolve_model": ".model.evolution",
    "ProcessModel": ".model.process",
    "load_model": ".model.serialize",
    "save_model": ".model.serialize",
}

__all__ = sorted([*_EXPORTS, "__version__"])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
