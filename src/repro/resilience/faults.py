"""Deterministic fault injection for the durability test harness.

A :class:`FaultPlan` is a seedable, JSON-serializable description of
*which* fault fires *where* and *when*: each :class:`FaultSpec` names a
documented choke point (see the catalogue below), a fault kind, and
the 1-based hit index at which it triggers.  The plan is installed
into the process — programmatically via :func:`install` or ambiently
through the ``REPRO_FAULT_PLAN`` environment variable (a path to a
plan JSON file, honored by subprocesses too) — and the
instrumented code consults :func:`maybe_fault` at each choke point.
With no plan installed the choke points are a module-global ``None``
check, so production runs pay nothing.

Fault kinds
-----------
``io-error``
    Raise :class:`InjectedIOError` (an ``OSError``) at the choke point.
``torn-write``
    Raise :class:`InjectedTear` carrying a seeded prefix of the payload;
    write sites respond by writing the prefix, syncing it to disk, and
    SIGKILLing the process — a faithful power-loss-mid-write.
``corrupt-bytes``
    Return the payload with one seeded byte flipped (detected later by
    CRC framing, never at write time).
``sigkill``
    SIGKILL the current process at the choke point.
``clock-skew``
    Not tied to a hit count: shifts :func:`now` by ``arg`` seconds for
    the life of the plan (checkpoint-age style time reads).

Choke point catalogue
---------------------
``durable.write``     every :func:`~repro.resilience.durable.durable_write`
``journal.append``    every journal record append
``checkpoint.save``   every durable-session checkpoint
``ingest.accept``     every accepted execution yielded by streaming ingest
``fold.merge``        every execution/chunk folded into the mining state
``clock``             the skewable clock (``clock-skew`` only)
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

PathOrStr = Union[str, Path]

KIND_IO_ERROR = "io-error"
KIND_TORN_WRITE = "torn-write"
KIND_CORRUPT_BYTES = "corrupt-bytes"
KIND_SIGKILL = "sigkill"
KIND_CLOCK_SKEW = "clock-skew"

FAULT_KINDS = (
    KIND_IO_ERROR,
    KIND_TORN_WRITE,
    KIND_CORRUPT_BYTES,
    KIND_SIGKILL,
    KIND_CLOCK_SKEW,
)

POINT_DURABLE_WRITE = "durable.write"
POINT_JOURNAL_APPEND = "journal.append"
POINT_CHECKPOINT_SAVE = "checkpoint.save"
POINT_INGEST_ACCEPT = "ingest.accept"
POINT_FOLD_MERGE = "fold.merge"
POINT_CLOCK = "clock"

CHOKE_POINTS = (
    POINT_DURABLE_WRITE,
    POINT_JOURNAL_APPEND,
    POINT_CHECKPOINT_SAVE,
    POINT_INGEST_ACCEPT,
    POINT_FOLD_MERGE,
    POINT_CLOCK,
)

PLAN_ENV = "REPRO_FAULT_PLAN"

#: Points the seeded kill-plan generator draws from: the parent-process
#: choke points a streaming mine passes through, so a generated plan
#: SIGKILLs somewhere inside the durability-critical path.
KILL_POINTS = (
    POINT_INGEST_ACCEPT,
    POINT_JOURNAL_APPEND,
    POINT_FOLD_MERGE,
    POINT_CHECKPOINT_SAVE,
    POINT_DURABLE_WRITE,
)


class InjectedIOError(OSError):
    """The ``io-error`` fault: an OSError raised at a choke point."""


class InjectedTear(BaseException):
    """The ``torn-write`` fault: carries the prefix to leave on disk.

    Derives from ``BaseException`` so ordinary ``except Exception``
    recovery code cannot swallow it — only the write site that asked
    for the payload handles it (write the prefix, sync, die).
    """

    def __init__(self, partial: bytes) -> None:
        super().__init__(f"injected torn write ({len(partial)} bytes kept)")
        self.partial = partial


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: ``kind`` fires at hit ``at`` of ``point``.

    ``count`` extends the fault over that many consecutive hits;
    ``arg`` is kind-specific (the ``clock-skew`` seconds).
    """

    point: str
    kind: str
    at: int = 1
    count: int = 1
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 1 or self.count < 1:
            raise ValueError("fault at/count must be >= 1")

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "at": self.at,
            "count": self.count,
            "arg": self.arg,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultSpec":
        return cls(
            point=str(payload["point"]),
            kind=str(payload["kind"]),
            at=int(payload.get("at", 1)),
            count=int(payload.get("count", 1)),
            arg=float(payload.get("arg", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of :class:`FaultSpec` entries.

    ``seed`` drives every pseudo-random choice the injector makes
    (torn-write split point, corrupt-bytes position), so one plan
    always produces the same on-disk damage.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_json() for spec in self.faults],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            faults=tuple(
                FaultSpec.from_json(entry)
                for entry in payload.get("faults", ())
            ),
        )

    def save(self, path: PathOrStr) -> None:
        # Imported lazily: durable imports this module at load time.
        from repro.resilience.durable import durable_write

        durable_write(
            Path(path), json.dumps(self.to_json(), indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: PathOrStr) -> "FaultPlan":
        return cls.from_json(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    @classmethod
    def seeded_kill(
        cls,
        seed: int,
        max_per_record_hits: int = 120,
        max_checkpoint_hits: int = 4,
    ) -> "FaultPlan":
        """A deterministic one-SIGKILL plan derived from ``seed``.

        Picks one parent-process choke point and a hit index within a
        plausible range for a small streaming run; the kill-and-resume
        suite sweeps seeds to cover the whole durability path.  Plans
        whose hit index exceeds what a given run reaches simply never
        fire — the run completes, which the suite treats as one more
        (trivially consistent) sample.
        """
        rng = random.Random(seed)
        point = rng.choice(KILL_POINTS)
        cap = (
            max_checkpoint_hits
            if point in (POINT_CHECKPOINT_SAVE, POINT_DURABLE_WRITE)
            else max_per_record_hits
        )
        return cls(
            seed=seed,
            faults=(FaultSpec(point=point, kind=KIND_SIGKILL, at=rng.randint(1, cap)),),
        )


def hard_kill() -> None:
    """SIGKILL the current process (no Python teardown, no flushing)."""
    sys.stdout.flush()
    sys.stderr.flush()
    os.kill(os.getpid(), signal.SIGKILL)
    # SIGKILL cannot be handled; if we are somehow still alive (e.g. a
    # test harness intercepting os.kill), fall through loudly.
    raise RuntimeError("survived an injected SIGKILL")  # pragma: no cover


@dataclass
class FaultInjector:
    """Executes a :class:`FaultPlan` against the choke points.

    Tracks per-point hit counts and a log of fired faults, both useful
    to tests asserting that a plan did what it said.
    """

    plan: FaultPlan
    hits: Counter = field(default_factory=Counter)
    fired: List[Tuple[str, str, int]] = field(default_factory=list)

    def _rng(self, point: str, hit: int) -> random.Random:
        return random.Random(f"{self.plan.seed}:{point}:{hit}")

    def clock_skew(self) -> float:
        """Seconds of skew the plan applies to :func:`now`."""
        return sum(
            spec.arg
            for spec in self.plan.faults
            if spec.kind == KIND_CLOCK_SKEW
        )

    def fire(
        self, point: str, payload: Optional[bytes] = None
    ) -> Optional[bytes]:
        """Register one hit of ``point`` and execute any planned fault.

        Returns the (possibly mutated) payload.  Raises
        :class:`InjectedIOError` or :class:`InjectedTear`, or kills the
        process, according to the plan.
        """
        self.hits[point] += 1
        hit = self.hits[point]
        for spec in self.plan.faults:
            if spec.point != point or spec.kind == KIND_CLOCK_SKEW:
                continue
            if not (spec.at <= hit < spec.at + spec.count):
                continue
            self.fired.append((point, spec.kind, hit))
            payload = self._execute(spec, point, hit, payload)
        return payload

    def _execute(
        self,
        spec: FaultSpec,
        point: str,
        hit: int,
        payload: Optional[bytes],
    ) -> Optional[bytes]:
        if spec.kind == KIND_IO_ERROR:
            raise InjectedIOError(
                f"injected io-error at {point} (hit {hit})"
            )
        if spec.kind == KIND_SIGKILL:
            hard_kill()
        if spec.kind == KIND_TORN_WRITE:
            data = payload if payload is not None else b""
            if len(data) < 2:
                hard_kill()
            split = self._rng(point, hit).randrange(1, len(data))
            raise InjectedTear(data[:split])
        if spec.kind == KIND_CORRUPT_BYTES:
            if not payload:
                return payload
            position = self._rng(point, hit).randrange(len(payload))
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            return bytes(corrupted)
        return payload  # pragma: no cover - exhaustive over FAULT_KINDS


_injector: Optional[FaultInjector] = None
_env_checked = False


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` into this process; returns the live injector."""
    global _injector, _env_checked
    _injector = FaultInjector(plan)
    _env_checked = True
    return _injector


def uninstall() -> None:
    """Remove any installed plan (tests call this in teardown)."""
    global _injector, _env_checked
    _injector = None
    _env_checked = True


def get_injector() -> Optional[FaultInjector]:
    """The process's injector, loading ``REPRO_FAULT_PLAN`` lazily.

    The environment variable names a plan JSON file; it is read at most
    once per process, so child processes inherit the plan with fresh
    per-process hit counts.
    """
    global _injector, _env_checked
    if _injector is None and not _env_checked:
        _env_checked = True
        path = os.environ.get(PLAN_ENV, "").strip()
        if path:
            _injector = FaultInjector(FaultPlan.load(path))
    return _injector


def maybe_fault(
    point: str, payload: Optional[bytes] = None
) -> Optional[bytes]:
    """Choke-point entry: a no-op unless a fault plan is installed."""
    injector = _injector if _env_checked else get_injector()
    if injector is None:
        return payload
    return injector.fire(point, payload)


def now() -> float:
    """``time.time()`` plus any planned clock skew.

    Durability-adjacent time reads (checkpoint age, journal mtimes in
    fsck reports) go through this so the ``clock-skew`` fault can test
    that recovery never *depends* on wall-clock monotonicity.
    """
    injector = _injector if _env_checked else get_injector()
    skew = injector.clock_skew() if injector is not None else 0.0
    return time.time() + skew
