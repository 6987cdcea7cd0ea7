"""Simulated Flowmark datasets (Table 3 of the paper).

The paper's Section 8.2 evaluates on logs from five processes of an IBM
Flowmark installation: Upload_and_Notify (7 vertices / 7 edges, 134
executions), StressSleep (14/23, 160), Pend_Block (6/7, 121), Local_Swap
(12/11, 24) and UWI_Pilot (7/7, 134).  The installation and its logs are
unavailable, so — per the substitution rule in DESIGN.md §5 — we define
plausible process models with exactly the published vertex and edge
counts, run them through the workflow engine for the published number of
executions, and verify the miner recovers the model (the paper verified
"with the user"; we verify against our ground truth).

Figure topologies were not published; the designs below follow each
process' name.  Only the *counts* are pinned by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.engine.simulator import SimulationConfig, WorkflowSimulator
from repro.logs.event_log import EventLog
from repro.model.builder import ProcessBuilder
from repro.model.conditions import attr_ge, attr_gt, attr_le, attr_lt
from repro.model.process import ProcessModel
from repro.paper import (
    FLOWMARK_EXECUTIONS,
    FLOWMARK_PROCESS_NAMES,
    FLOWMARK_SHAPES,
)


@dataclass(frozen=True)
class FlowmarkDataset:
    """One simulated Flowmark dataset: the model and its engine log."""

    model: ProcessModel
    log: EventLog


def _upload_and_notify() -> ProcessModel:
    """7 vertices / 7 edges: upload, then user/admin notification fan-out.

    The notification branches overlap for mid-range upload outputs, so the
    log exhibits genuine parallelism; neither branch can be dead for any
    output, so every run reaches the sink.
    """
    return (
        ProcessBuilder("Upload_and_Notify")
        .edge("Start", "Validate")
        .edge("Validate", "Upload")
        .edge("Upload", "Notify_User", condition=attr_gt(0, 30))
        .edge("Upload", "Notify_Admin", condition=attr_le(0, 70))
        .edge("Notify_User", "Archive")
        .edge("Notify_Admin", "Archive")
        .edge("Archive", "End")
        .build()
    )


def _stress_sleep() -> ProcessModel:
    """14 vertices / 23 edges: three fork/sleep/check lanes with optional
    sleeps and cross-lane throttles, a merge, and an optional verify pass.

    Every edge is *recoverable*: for each edge some execution exists in
    which no alternative path of always-present activities shadows it (a
    skip edge over an always-run activity could never survive Algorithm
    2's per-execution transitive reductions).
    """
    builder = ProcessBuilder("StressSleep").edge("Start", "Init")
    for lane in ("1", "2", "3"):
        fork, sleep, check = f"Fork{lane}", f"Sleep{lane}", f"Check{lane}"
        builder.edge("Init", fork)
        builder.edge(fork, sleep, condition=attr_gt(0, 40))
        builder.edge(fork, check)
        builder.edge(sleep, check)
        builder.edge(check, "Merge")
    # Cross-lane throttles: a lane's sleep delays the next lane's check.
    builder.edge("Sleep1", "Check2")
    builder.edge("Sleep2", "Check3")
    builder.edge("Sleep3", "Check1")
    builder.edge("Sleep1", "Check3")
    # Optional verification pass; End joins from Merge when it is skipped.
    builder.edge("Merge", "Verify", condition=attr_le(0, 80))
    builder.edge("Verify", "End")
    builder.edge("Merge", "End")
    return builder.build()


def _pend_block() -> ProcessModel:
    """6 vertices / 7 edges: a three-way pend/block/skip decision whose
    conditions partition the output range, re-joining at Resume."""
    return (
        ProcessBuilder("Pend_Block")
        .edge("Start", "Check")
        .edge("Check", "Pend", condition=attr_lt(0, 34))
        .edge("Check", "Block", condition=attr_ge(0, 67))
        .edge("Check", "Resume",
              condition=attr_ge(0, 34) & attr_lt(0, 67))
        .edge("Pend", "Resume")
        .edge("Block", "Resume")
        .edge("Resume", "End")
        .build()
    )


def _local_swap() -> ProcessModel:
    """12 vertices / 11 edges: a pure chain (the only single-source,
    single-sink shape with one less edge than vertices)."""
    stages = [
        "Start", "Lock", "Read_Source", "Read_Target", "Stage",
        "Swap", "Flush", "Verify", "Unlock", "Log", "Cleanup", "End",
    ]
    return ProcessBuilder("Local_Swap").chain(*stages).build()


def _uwi_pilot() -> ProcessModel:
    """7 vertices / 7 edges: a pilot run with parallel collect/review."""
    return (
        ProcessBuilder("UWI_Pilot")
        .edge("Start", "Prepare")
        .edge("Prepare", "Pilot_Run")
        .edge("Pilot_Run", "Collect", condition=attr_gt(0, 25))
        .edge("Pilot_Run", "Review", condition=attr_le(0, 75))
        .edge("Collect", "Report")
        .edge("Review", "Report")
        .edge("Report", "End")
        .build()
    )


_BUILDERS = {
    "Upload_and_Notify": _upload_and_notify,
    "StressSleep": _stress_sleep,
    "Pend_Block": _pend_block,
    "Local_Swap": _local_swap,
    "UWI_Pilot": _uwi_pilot,
}


def flowmark_model(name: str) -> ProcessModel:
    """Return the simulated process model named ``name``.

    Raises ``KeyError`` listing the valid names otherwise.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown Flowmark process {name!r}; choose from "
            f"{sorted(_BUILDERS)}"
        ) from None
    model = builder()
    expected_vertices, expected_edges = FLOWMARK_SHAPES[name]
    assert model.activity_count == expected_vertices, (
        name, model.activity_count
    )
    assert model.edge_count == expected_edges, (name, model.edge_count)
    return model


def flowmark_dataset(
    name: str,
    executions: int = 0,
    seed: int = 0,
    agents: int = 4,
) -> FlowmarkDataset:
    """Build the model and simulate its log.

    ``executions`` of 0 means "the paper's count" (Table 3).  The high
    duration jitter matters: independent activities at different graph
    depths must occasionally be observed in both orders, or the log itself
    (not the miner) would contain extra dependencies.
    """
    model = flowmark_model(name)
    count = executions or FLOWMARK_EXECUTIONS[name]
    simulator = WorkflowSimulator(
        model,
        SimulationConfig(agents=agents, duration_jitter=0.9, seed=seed),
    )
    return FlowmarkDataset(model=model, log=simulator.run_log(count))


def all_flowmark_datasets(seed: int = 0) -> List[FlowmarkDataset]:
    """Build every Table 3 dataset at the published execution counts."""
    return [
        flowmark_dataset(name, seed=seed) for name in FLOWMARK_PROCESS_NAMES
    ]
