"""Crash-safety layer: durable writes, WAL, fault injection, sessions.

See ``docs/RELIABILITY.md`` for the durability contract this package
implements and the recovery procedure it supports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.errors import JournalError
    from repro.resilience.durable import crc32c, durable_write, fsync_directory
    from repro.resilience.faults import (
        CHOKE_POINTS,
        FAULT_KINDS,
        PLAN_ENV,
        FaultInjector,
        FaultPlan,
        FaultSpec,
        InjectedIOError,
        InjectedTear,
        get_injector,
        hard_kill,
        install,
        maybe_fault,
        now,
        uninstall,
    )
    from repro.resilience.journal import (
        Journal,
        JournalScan,
        decode_execution,
        encode_execution,
        replay_executions,
        scan_journal,
        scan_segment,
    )
    from repro.resilience.session import (
        DEFAULT_CHECKPOINT_EVERY,
        DurableSession,
        HandoffReceipt,
        RecoveryReport,
    )

#: Re-export -> defining module, resolved on first access.
_EXPORTS = {
    "JournalError": "repro.errors",
    "crc32c": ".durable",
    "durable_write": ".durable",
    "fsync_directory": ".durable",
    "CHOKE_POINTS": ".faults",
    "FAULT_KINDS": ".faults",
    "PLAN_ENV": ".faults",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "FaultSpec": ".faults",
    "InjectedIOError": ".faults",
    "InjectedTear": ".faults",
    "get_injector": ".faults",
    "hard_kill": ".faults",
    "install": ".faults",
    "maybe_fault": ".faults",
    "now": ".faults",
    "uninstall": ".faults",
    "Journal": ".journal",
    "JournalScan": ".journal",
    "decode_execution": ".journal",
    "encode_execution": ".journal",
    "replay_executions": ".journal",
    "scan_journal": ".journal",
    "scan_segment": ".journal",
    "DEFAULT_CHECKPOINT_EVERY": ".session",
    "DurableSession": ".session",
    "HandoffReceipt": ".session",
    "RecoveryReport": ".session",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
