"""Tests for fault-tolerant ingestion: policies, repair, quarantine,
resource guards, and the CLI wiring."""

import io
import json
import random

import pytest

from repro.cli import main
from repro.core.general_dag import mine_general_dag
from repro.errors import (
    LogError,
    LogFormatError,
    MalformedExecutionError,
    ResourceLimitError,
)
from repro.logs.codec import (
    ingest_log,
    ingest_log_file,
    log_to_text,
    read_log,
)
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.ingest import (
    POLICY_REPAIR,
    POLICY_SKIP,
    POLICY_STRICT,
    REASON_BAD_LINE,
    REASON_EMPTY_EXECUTION,
    REASON_MALFORMED_EXECUTION,
    REASON_MIXED_PROCESS,
    IngestLimits,
    Quarantine,
)
from repro.logs.jsonl import (
    ingest_log_jsonl,
    read_log_jsonl,
    record_from_json,
    write_log_jsonl,
)
from repro.logs.repair import (
    REPAIR_DROPPED_DUPLICATE,
    REPAIR_DROPPED_EMPTY_TRACE,
    REPAIR_RESORTED_TIMESTAMPS,
    REPAIR_SYNTHESIZED_START,
    repair_records,
)


def sample_log():
    return EventLog.from_sequences(
        ["ABCE", "ACDBE", "ACDE"], process_name="claims"
    )


def sample_text():
    return log_to_text(sample_log())


def jsonl_line(
    process="p", execution="e1", activity="A", type="START", time=0.0,
    **extra,
):
    payload = {
        "process": process, "execution": execution,
        "activity": activity, "type": type, "time": time,
    }
    payload.update(extra)
    return json.dumps(payload)


class TestStrictPolicyUnchanged:
    def test_strict_is_default_and_fail_fast(self):
        text = sample_text() + "garbage line\n"
        with pytest.raises(LogFormatError):
            read_log(io.StringIO(text))
        with pytest.raises(LogFormatError):
            ingest_log(io.StringIO(text))

    def test_strict_raises_malformed_execution(self):
        text = "p\te1\tA\tEND\t1.0\n"
        with pytest.raises(MalformedExecutionError):
            read_log(io.StringIO(text))

    def test_strict_report_is_clean(self):
        result = ingest_log(io.StringIO(sample_text()))
        assert result.report.clean
        assert result.report.accepted_executions == 3
        assert result.log.sequences() == sample_log().sequences()

    def test_mixed_process_error_carries_line_number_text(self):
        text = "p1\te1\tA\tSTART\t0\np2\te2\tB\tSTART\t1\n"
        with pytest.raises(LogFormatError, match="line 2.*mixes") as info:
            read_log(io.StringIO(text))
        assert info.value.line_number == 2

    def test_mixed_process_error_carries_line_number_jsonl(self):
        lines = "\n".join(
            [jsonl_line(process="p1"), jsonl_line(process="p2")]
        )
        with pytest.raises(LogFormatError, match="line 2.*mixes") as info:
            read_log_jsonl(io.StringIO(lines))
        assert info.value.line_number == 2


class TestSkipPolicy:
    def test_bad_lines_are_quarantined(self):
        text = sample_text()
        lines = text.splitlines()
        lines.insert(2, "this is not a record")
        result = ingest_log(
            io.StringIO("\n".join(lines) + "\n"), policy=POLICY_SKIP
        )
        assert result.report.quarantined_lines == 1
        assert result.report.reasons[REASON_BAD_LINE] == 1
        assert result.report.dropped == 1
        assert not result.report.clean
        [item] = list(result.quarantine)
        assert item.kind == "line"
        assert item.line_number == 3
        assert item.payload == "this is not a record"
        # everything else still loads
        assert result.log.sequences() == sample_log().sequences()

    def test_foreign_process_records_are_quarantined(self):
        lines = sample_text().splitlines()
        lines.insert(4, "intruder\tx1\tZ\tSTART\t0")
        result = ingest_log(
            io.StringIO("\n".join(lines) + "\n"), policy=POLICY_SKIP
        )
        assert result.report.reasons[REASON_MIXED_PROCESS] == 1
        assert result.log.process_name == "claims"
        assert "Z" not in result.log.activities()

    def test_malformed_execution_is_quarantined_wholesale(self):
        text = sample_text() + "claims\tbad\tX\tEND\t9.0\n"
        result = ingest_log(io.StringIO(text), policy=POLICY_SKIP)
        assert result.report.quarantined_executions == 1
        assert result.report.reasons[REASON_MALFORMED_EXECUTION] == 1
        assert result.report.accepted_executions == 3
        items = [i for i in result.quarantine if i.kind == "execution"]
        assert items[0].execution_id == "bad"
        assert items[0].payload[0]["activity"] == "X"

    def test_skip_does_not_repair(self):
        text = sample_text() + "claims\tbad\tX\tEND\t9.0\n"
        result = ingest_log(io.StringIO(text), policy=POLICY_SKIP)
        assert not result.report.repairs

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ingest_log(io.StringIO(""), policy="lenient")


class TestRepairRules:
    def test_synthesize_missing_start(self):
        records = [end_event("e", "A", 2.0)]
        repaired, applied = repair_records(records)
        assert applied[REPAIR_SYNTHESIZED_START] == 1
        assert len(repaired) == 2
        start, end = repaired
        assert start.is_start and start.activity == "A"
        assert start.timestamp < end.timestamp

    def test_synthesized_start_pairs_with_its_end(self):
        # The synthesized START must survive Execution's re-sort and
        # match its END.
        from repro.logs.execution import Execution

        records = [
            start_event("e", "A", 0.0),
            end_event("e", "A", 1.0),
            end_event("e", "B", 2.0),
        ]
        repaired, applied = repair_records(records)
        execution = Execution("e", repaired)
        assert execution.sequence == ["A", "B"]
        assert applied[REPAIR_SYNTHESIZED_START] == 1

    def test_matched_ends_are_not_touched(self):
        records = [
            start_event("e", "A", 0.0),
            end_event("e", "A", 1.0),
        ]
        repaired, applied = repair_records(records)
        assert repaired == records
        assert not applied

    def test_drop_duplicate_events(self):
        records = [
            start_event("e", "A", 0.0),
            start_event("e", "A", 0.0),
            end_event("e", "A", 1.0),
            end_event("e", "A", 1.0),
        ]
        repaired, applied = repair_records(records)
        assert applied[REPAIR_DROPPED_DUPLICATE] == 2
        assert len(repaired) == 2

    def test_duplicate_end_does_not_create_phantom_instance(self):
        # A duplicated END must be deduplicated, not "repaired" into a
        # second instance via a synthesized START.
        records = [
            start_event("e", "A", 0.0),
            end_event("e", "A", 1.0),
            end_event("e", "A", 1.0),
        ]
        repaired, applied = repair_records(records)
        assert applied[REPAIR_DROPPED_DUPLICATE] == 1
        assert applied[REPAIR_SYNTHESIZED_START] == 0
        assert len(repaired) == 2

    def test_resort_non_monotone_records(self):
        records = [
            end_event("e", "A", 1.0),
            start_event("e", "A", 0.0),
        ]
        repaired, applied = repair_records(records)
        assert applied[REPAIR_RESORTED_TIMESTAMPS] == 1
        assert [r.timestamp for r in repaired] == [0.0, 1.0]


class TestRepairPolicy:
    def test_orphan_end_repaired(self):
        text = sample_text() + "claims\tzz\tX\tEND\t9.0\n"
        result = ingest_log(io.StringIO(text), policy=POLICY_REPAIR)
        assert result.report.repairs[REPAIR_SYNTHESIZED_START] == 1
        assert result.report.repaired_executions == 1
        assert result.report.accepted_executions == 4
        assert result.report.quarantined_executions == 0

    def test_empty_trace_dropped_and_quarantined(self):
        # An execution with only a START never completes anything.
        text = sample_text() + "claims\tzz\tX\tSTART\t9.0\n"
        result = ingest_log(io.StringIO(text), policy=POLICY_REPAIR)
        assert result.report.repairs[REPAIR_DROPPED_EMPTY_TRACE] == 1
        assert result.report.reasons[REASON_EMPTY_EXECUTION] == 1
        assert result.report.accepted_executions == 3

    def test_corrupted_log_recovers_clean_graph(self):
        # Acceptance criterion: ~10% injected corruption (bad lines,
        # orphan ENDs, duplicates, shuffled record order) under repair
        # recovers the same graph as the clean log.
        clean = EventLog.from_sequences(
            ["ABCF", "ACDF", "ABDF", "ABCDF"] * 10, process_name="p"
        )
        lines = log_to_text(clean).splitlines()
        rng = random.Random(7)
        dirty = []
        for line in lines:
            roll = rng.random()
            if roll < 0.025:
                dirty.append("%%% corrupt not-a-record %%%")
                dirty.append(line)  # garbage injected alongside
            elif roll < 0.05 and "\tSTART\t" in line:
                continue  # lost START -> orphan END
            elif roll < 0.075:
                dirty.extend([line, line])  # duplicated record
            elif roll < 0.10 and dirty:
                dirty.insert(rng.randrange(len(dirty)), line)  # shuffled
            else:
                dirty.append(line)
        result = ingest_log(
            io.StringIO("\n".join(dirty) + "\n"), policy=POLICY_REPAIR
        )
        assert result.report.repairs  # corruption was actually injected
        assert mine_general_dag(result.log).edge_set() == (
            mine_general_dag(clean).edge_set()
        )

    def test_jsonl_repair_matches_text_repair(self):
        log = sample_log()
        buffer = io.StringIO()
        write_log_jsonl(log, buffer)
        lines = buffer.getvalue().splitlines()
        lines.insert(1, "{not json")
        lines.append(jsonl_line(
            process="claims", execution="zz", activity="X",
            type="END", time=9.0,
        ))
        result = ingest_log_jsonl(
            io.StringIO("\n".join(lines) + "\n"), policy=POLICY_REPAIR
        )
        assert result.report.quarantined_lines == 1
        assert result.report.repairs[REPAIR_SYNTHESIZED_START] == 1


class TestResourceGuards:
    def test_max_executions(self):
        with pytest.raises(ResourceLimitError) as info:
            ingest_log(
                io.StringIO(sample_text()),
                limits=IngestLimits(max_executions=2),
            )
        assert info.value.limit == "max_executions"
        assert info.value.bound == 2

    def test_max_events_per_execution(self):
        with pytest.raises(ResourceLimitError):
            ingest_log(
                io.StringIO(sample_text()),
                limits=IngestLimits(max_events_per_execution=3),
            )

    def test_max_activities(self):
        with pytest.raises(ResourceLimitError):
            ingest_log(
                io.StringIO(sample_text()),
                limits=IngestLimits(max_activities=2),
            )

    def test_guards_fire_under_every_policy(self):
        for policy in (POLICY_STRICT, POLICY_SKIP, POLICY_REPAIR):
            with pytest.raises(ResourceLimitError):
                ingest_log(
                    io.StringIO(sample_text()),
                    policy=policy,
                    limits=IngestLimits(max_executions=1),
                )

    def test_generous_limits_pass(self):
        result = ingest_log(
            io.StringIO(sample_text()),
            limits=IngestLimits(
                max_executions=100,
                max_events_per_execution=100,
                max_activities=100,
            ),
        )
        assert result.report.accepted_executions == 3

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            IngestLimits(max_executions=0)


class TestQuarantineSink:
    def test_dead_letter_file(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        text = sample_text() + "garbage\n"
        with Quarantine(path) as quarantine:
            ingest_log(
                io.StringIO(text),
                policy=POLICY_SKIP,
                quarantine=quarantine,
            )
        payloads = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert len(payloads) == 1
        assert payloads[0]["reason"] == REASON_BAD_LINE
        assert payloads[0]["payload"] == "garbage"

    def test_no_file_when_nothing_quarantined(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        with Quarantine(path) as quarantine:
            ingest_log(
                io.StringIO(sample_text()),
                policy=POLICY_SKIP,
                quarantine=quarantine,
            )
        assert not path.exists()


class TestNonNumericOutputs:
    def test_jsonl_rejects_boolean_output_entries(self):
        line = jsonl_line(type="END", time=1.0, output=[True, 2.0])
        with pytest.raises(LogFormatError, match="output entry"):
            record_from_json(line, 1)

    def test_jsonl_rejects_string_output_entries(self):
        line = jsonl_line(type="END", time=1.0, output=["3.5"])
        with pytest.raises(LogFormatError, match="output entry"):
            record_from_json(line, 1)

    def test_jsonl_rejects_non_finite_output_entries(self):
        line = jsonl_line(type="END", time=1.0, output=[float("nan")])
        with pytest.raises(LogFormatError, match="finite"):
            record_from_json(line, 1)

    def test_jsonl_rejects_boolean_time(self):
        line = jsonl_line(time=True)
        with pytest.raises(LogFormatError, match="time"):
            record_from_json(line, 1)

    def test_text_codec_rejects_non_finite_outputs(self):
        from repro.logs.codec import parse_record

        with pytest.raises(LogFormatError, match="finite"):
            parse_record("p\te\tA\tEND\t1.0\tnan,2.0", 1)
        with pytest.raises(LogFormatError, match="finite"):
            parse_record("p\te\tA\tEND\t1.0\tinf", 1)

    def test_text_codec_rejects_non_finite_timestamp(self):
        from repro.logs.codec import parse_record

        with pytest.raises(LogFormatError, match="finite"):
            parse_record("p\te\tA\tSTART\tnan", 1)

    def test_plain_numbers_still_accepted(self):
        _, record = record_from_json(
            jsonl_line(type="END", time=1.5, output=[1, 2.5]), 1
        )
        assert record.output == (1.0, 2.5)


class TestFuzzOnlyLogErrors:
    """Arbitrary corrupt input must raise LogError subclasses only."""

    PRINTABLE = (
        "abcdefghijklmnopqrstuvwxyz0123456789\t,.{}[]\"':- \\/#"
    )

    def _mutate(self, text, rng):
        mode = rng.randrange(4)
        if mode == 0:  # splice random garbage into the text
            pos = rng.randrange(len(text) + 1)
            junk = "".join(
                rng.choice(self.PRINTABLE)
                for _ in range(rng.randrange(1, 20))
            )
            return text[:pos] + junk + text[pos:]
        if mode == 1:  # delete a random span
            if len(text) < 2:
                return text
            lo = rng.randrange(len(text) - 1)
            hi = min(len(text), lo + rng.randrange(1, 30))
            return text[:lo] + text[hi:]
        if mode == 2:  # truncate
            return text[: rng.randrange(len(text) + 1)]
        shuffled = text.splitlines()  # shuffle lines
        rng.shuffle(shuffled)
        return "\n".join(shuffled) + "\n"

    def test_text_codec_fuzz(self):
        base = sample_text()
        rng = random.Random(42)
        for _ in range(300):
            mutated = self._mutate(base, rng)
            try:
                read_log(io.StringIO(mutated))
            except LogError:
                pass  # LogFormatError / MalformedExecutionError: fine

    def test_jsonl_codec_fuzz(self):
        buffer = io.StringIO()
        write_log_jsonl(sample_log(), buffer)
        base = buffer.getvalue()
        rng = random.Random(43)
        for _ in range(300):
            mutated = self._mutate(base, rng)
            try:
                read_log_jsonl(io.StringIO(mutated))
            except LogError:
                pass

    def test_skip_policy_fuzz_never_raises_format_errors(self):
        # Under skip, only resource/OS errors may escape; corrupt lines
        # and traces must be quarantined, not raised.
        base = sample_text()
        rng = random.Random(44)
        for _ in range(200):
            mutated = self._mutate(base, rng)
            result = ingest_log(io.StringIO(mutated), policy=POLICY_SKIP)
            total = (
                result.report.accepted_executions
                + result.report.quarantined_executions
            )
            assert total >= 0  # and nothing raised


class TestCliRobustMine:
    def _write_dirty(self, tmp_path):
        text = sample_text() + "garbage line\n"
        path = tmp_path / "dirty.tsv"
        path.write_text(text)
        return path

    def test_mine_strict_fails_on_dirty_log(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        assert main(["mine", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mine_skip_exits_3_and_prints_summary(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        code = main(["mine", str(path), "--on-error", "skip"])
        captured = capsys.readouterr()
        assert code == 3
        assert "ingest: policy=skip" in captured.err
        assert "bad-line=1" in captured.err
        assert "->" in captured.out or "edges" in captured.out

    def test_mine_repair_clean_log_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.tsv"
        path.write_text(sample_text())
        assert main(["mine", str(path), "--on-error", "repair"]) == 0

    def test_mine_quarantine_file(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        dead = tmp_path / "dead.jsonl"
        code = main([
            "mine", str(path),
            "--on-error", "skip", "--quarantine", str(dead),
        ])
        capsys.readouterr()
        assert code == 3
        assert json.loads(dead.read_text().splitlines()[0])[
            "reason"
        ] == REASON_BAD_LINE

    def test_mine_limit_flag(self, tmp_path, capsys):
        path = tmp_path / "clean.tsv"
        path.write_text(sample_text())
        code = main(["mine", str(path), "--limit-executions", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "resource limit" in captured.err

    def test_mine_rejects_non_positive_limit(self, tmp_path, capsys):
        path = tmp_path / "clean.tsv"
        path.write_text(sample_text())
        with pytest.raises(SystemExit):
            main(["mine", str(path), "--limit-executions", "0"])
        assert "limit must be >= 1" in capsys.readouterr().err

    def test_mine_jsonl_log(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        buffer = io.StringIO()
        write_log_jsonl(sample_log(), buffer)
        path.write_text(buffer.getvalue() + "{not json\n")
        code = main(["mine", str(path), "--on-error", "skip"])
        captured = capsys.readouterr()
        assert code == 3
        assert "quarantined=1 lines" in captured.err

    @staticmethod
    def _log_with_value(tmp_path, value, field, canonical):
        """The sample log plus one END line whose ``field`` is ``value``.

        ``value`` is JSON text spliced in verbatim.  A canonical
        line takes the block scanner's grammar tier, any other key order
        its JSON-decoder tier; strict and per-line errors come from
        ``record_from_json`` either way.
        """
        buffer = io.StringIO()
        write_log_jsonl(sample_log(), buffer)
        output = f"[{value}]" if field == "output" else "null"
        time = value if field == "time" else "99.0"
        if canonical:
            line = (
                f'{{"activity": "Z", "execution": "late", "output": '
                f'{output}, "process": "claims", "time": {time}, '
                f'"type": "END"}}'
            )
        else:
            line = (
                f'{{"type": "END", "time": {time}, "process": "claims", '
                f'"output": {output}, "execution": "late", '
                f'"activity": "Z"}}'
            )
        path = tmp_path / f"{field}-{canonical}-{len(value)}.jsonl"
        path.write_text(buffer.getvalue() + line + "\n")
        return path

    def _mine(self, capsys, path, dead, *extra):
        dead.unlink(missing_ok=True)
        argv = ["mine", str(path), "--format", "edges", *extra]
        if extra[:2] == ("--on-error", "skip"):
            argv += ["--quarantine", str(dead)]
        status = main(argv)
        captured = capsys.readouterr()
        letters = [
            {k: v for k, v in json.loads(line).items() if k != "payload"}
            for line in (dead.read_text().splitlines() if dead.exists()
                         else [])
        ]
        return status, captured.out, captured.err, letters

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("field", ["time", "output"])
    @pytest.mark.parametrize("policy", ["skip", "strict"])
    def test_integer_past_float_range_is_judged_like_infinity(
        self, tmp_path, capsys, stream, canonical, field, policy
    ):
        """A 400-digit integer fails the float conversion; it must be
        quarantined (or fail strict ingest) exactly as ``Infinity``
        is, not crash ``mine`` with an OverflowError."""
        dead = tmp_path / "dead.jsonl"
        extra = ["--on-error", policy] + (["--stream"] if stream else [])
        runs = [
            self._mine(
                capsys,
                self._log_with_value(tmp_path, number, field, canonical),
                dead,
                *extra,
            )
            for number in ("Infinity", "9" * 400)
        ]
        assert runs[0] == runs[1]
        status, _, err, letters = runs[1]
        if policy == "skip":
            assert status == 3
            assert [(d["reason"], d["line_number"]) for d in letters] == [
                (REASON_BAD_LINE, 27)
            ]
            assert "must be finite, got inf" in letters[0]["detail"]
        else:
            assert status == 1
            what = "time" if field == "time" else "output entry"
            assert err == f"error: line 27: {what} must be finite, got inf\n"

    @pytest.mark.parametrize(
        "value",
        ["9" * 5000, "[" * 100_000],
        ids=["past-int-digit-limit", "past-recursion-limit"],
    )
    def test_undecodable_json_value_is_a_bad_line(
        self, tmp_path, capsys, value
    ):
        """``json.loads`` raises ValueError, not JSONDecodeError, for an
        int of more than 4,300 digits, and RecursionError for deep
        nesting: each line is invalid JSON, with a bounded message."""
        path = self._log_with_value(tmp_path, value, "time", False)
        dead = tmp_path / "dead.jsonl"
        status, _, err, letters = self._mine(
            capsys, path, dead, "--on-error", "skip"
        )
        assert status == 3
        assert [d["reason"] for d in letters] == [REASON_BAD_LINE]
        assert letters[0]["detail"].startswith("line 27: invalid JSON:")
        assert len(letters[0]["detail"]) < 300
        assert "quarantined=1 lines" in err


class TestIngestFileHelpers:
    def test_ingest_log_file_roundtrip(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(sample_text())
        result = ingest_log_file(path, policy=POLICY_REPAIR)
        assert result.report.clean
        assert len(result.log) == 3


class TestDeadLetterDurability:
    """Crash-safety of the quarantine sink (append mode + torn-tail
    tolerant reader)."""

    def _item(self, reason, n=1):
        from repro.logs.ingest import QuarantinedItem

        return QuarantinedItem(
            kind="line",
            reason=reason,
            detail=f"record {n}",
            line_number=n,
            payload=f"raw-{n}",
        )

    def test_reopen_appends_after_survivors(self, tmp_path):
        from repro.logs.ingest import REASON_LATE_RECORD, read_dead_letter

        path = tmp_path / "dead.jsonl"
        with Quarantine(path) as quarantine:
            quarantine.add(self._item(REASON_BAD_LINE, 1))
        # A second run (e.g. after a crash + resume) must append, not
        # truncate the first run's records.
        with Quarantine(path) as quarantine:
            quarantine.add(self._item(REASON_LATE_RECORD, 2))
        scan = read_dead_letter(path)
        assert not scan.torn_tail
        assert [item.reason for item in scan.items] == [
            REASON_BAD_LINE,
            REASON_LATE_RECORD,
        ]
        assert [item.line_number for item in scan.items] == [1, 2]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        from repro.logs.ingest import read_dead_letter

        path = tmp_path / "dead.jsonl"
        with Quarantine(path) as quarantine:
            quarantine.add(self._item(REASON_BAD_LINE, 1))
            quarantine.add(self._item(REASON_BAD_LINE, 2))
        # Crash mid-write: the final record lost its tail bytes.
        path.write_bytes(path.read_bytes()[:-10])
        scan = read_dead_letter(path)
        assert scan.torn_tail
        assert [item.line_number for item in scan.items] == [1]

    def test_damage_before_the_tail_raises(self, tmp_path):
        from repro.logs.ingest import read_dead_letter

        path = tmp_path / "dead.jsonl"
        with Quarantine(path) as quarantine:
            for n in (1, 2, 3):
                quarantine.add(self._item(REASON_BAD_LINE, n))
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"NOT JSON"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError):
            read_dead_letter(path)
