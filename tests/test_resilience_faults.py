"""Deterministic fault injection: plans, the injector, choke points.

Determinism is the whole point — a seeded plan must describe the same
fault, fire at the same hit, and damage the same bytes on every run,
or the kill-and-resume suite could never assert byte-identical
recovery.  Process-killing kinds (sigkill, torn-write's
kill-after-partial) are exercised end to end by ``test_durability``;
here they stay un-fired.
"""

import json

import pytest

from repro.resilience.faults import (
    CHOKE_POINTS,
    KILL_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedIOError,
    InjectedTear,
    install,
    maybe_fault,
    now,
    uninstall,
)


@pytest.fixture(autouse=True)
def clean_injector():
    uninstall()
    yield
    uninstall()


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec("journal.append", "io-error", at=3),
                FaultSpec("clock", "clock-skew", arg=-60.0),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_and_load(self, tmp_path):
        plan = FaultPlan.seeded_kill(11)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # The file is plain JSON an operator can read and edit.
        assert "sigkill" in json.loads(path.read_text())["faults"][0]["kind"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("journal.append", "meteor-strike")

    def test_hit_index_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec("journal.append", "io-error", at=0)

    def test_seeded_kill_is_deterministic(self):
        assert FaultPlan.seeded_kill(3) == FaultPlan.seeded_kill(3)
        plans = {FaultPlan.seeded_kill(seed).faults for seed in range(50)}
        assert len(plans) > 10  # seeds actually vary the plan

    def test_seeded_kill_targets_documented_points(self):
        for seed in range(20):
            (spec,) = FaultPlan.seeded_kill(seed).faults
            assert spec.point in KILL_POINTS
            assert spec.point in CHOKE_POINTS
            assert spec.kind == "sigkill"


class TestInjector:
    def test_no_plan_is_a_passthrough(self):
        assert maybe_fault("journal.append", b"abc") == b"abc"

    def test_io_error_fires_at_planned_hit(self):
        install(
            FaultPlan(faults=(FaultSpec("durable.write", "io-error", at=2),))
        )
        assert maybe_fault("durable.write", b"one") == b"one"
        with pytest.raises(InjectedIOError):
            maybe_fault("durable.write", b"two")
        assert maybe_fault("durable.write", b"three") == b"three"

    def test_count_extends_the_fault_window(self):
        install(
            FaultPlan(
                faults=(
                    FaultSpec("ingest.accept", "io-error", at=2, count=2),
                )
            )
        )
        maybe_fault("ingest.accept")
        for _ in range(2):
            with pytest.raises(InjectedIOError):
                maybe_fault("ingest.accept")
        assert maybe_fault("ingest.accept") is None

    def test_points_count_hits_independently(self):
        injector = install(
            FaultPlan(faults=(FaultSpec("fold.merge", "io-error", at=3),))
        )
        maybe_fault("journal.append")
        maybe_fault("journal.append")
        maybe_fault("fold.merge")
        assert injector.hits == {"journal.append": 2, "fold.merge": 1}

    def test_torn_write_split_is_seeded(self):
        payload = bytes(range(64))

        def tear_with(seed):
            injector = FaultInjector(
                FaultPlan(
                    seed=seed,
                    faults=(FaultSpec("journal.append", "torn-write"),),
                )
            )
            with pytest.raises(InjectedTear) as info:
                injector.fire("journal.append", payload)
            return info.value.partial

        first = tear_with(5)
        assert first == tear_with(5)  # same seed, same prefix
        assert payload.startswith(first) and 0 < len(first) < len(payload)
        assert any(tear_with(seed) != first for seed in range(6, 12))

    def test_corrupt_bytes_flips_exactly_one_seeded_byte(self):
        payload = b"\x00" * 32
        injector = install(
            FaultPlan(
                seed=9,
                faults=(FaultSpec("checkpoint.save", "corrupt-bytes"),),
            )
        )
        mutated = injector.fire("checkpoint.save", payload)
        assert len(mutated) == len(payload)
        flipped = [
            i for i, (a, b) in enumerate(zip(payload, mutated)) if a != b
        ]
        assert len(flipped) == 1 and mutated[flipped[0]] == 0xFF

    def test_fired_log_records_what_happened(self):
        injector = install(
            FaultPlan(faults=(FaultSpec("fold.merge", "io-error", at=1),))
        )
        with pytest.raises(InjectedIOError):
            maybe_fault("fold.merge")
        assert injector.fired == [("fold.merge", "io-error", 1)]


class TestEnvironmentLoading:
    def test_env_var_installs_the_plan(self, tmp_path, monkeypatch):
        import repro.resilience.faults as faults

        plan = FaultPlan(
            faults=(FaultSpec("ingest.accept", "io-error", at=1),)
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        monkeypatch.setattr(faults, "_injector", None)
        monkeypatch.setattr(faults, "_env_checked", False)
        with pytest.raises(InjectedIOError):
            maybe_fault("ingest.accept")

    def test_env_is_read_at_most_once(self, tmp_path, monkeypatch):
        import repro.resilience.faults as faults

        monkeypatch.setenv("REPRO_FAULT_PLAN", str(tmp_path / "late.json"))
        monkeypatch.setattr(faults, "_injector", None)
        monkeypatch.setattr(faults, "_env_checked", True)  # already checked
        assert maybe_fault("ingest.accept", b"x") == b"x"


class TestClockSkew:
    def test_now_applies_planned_skew(self):
        import time

        install(
            FaultPlan(faults=(FaultSpec("clock", "clock-skew", arg=3600.0),))
        )
        assert now() - time.time() > 3500
        uninstall()
        assert abs(now() - time.time()) < 5
