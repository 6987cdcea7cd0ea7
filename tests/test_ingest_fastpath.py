"""Parity: the batched ingest fast paths vs per-record ingestion.

Four layers of fast path, one claim each:

* :meth:`FoldingIngestStream.push_batch` (block scan + line memo +
  folding clean buckets by activity sequence) must leave the mining
  state, the ingest report, the quarantine contents and any raised
  error byte-identical to pushing every line through
  :meth:`IngestStream.push` and calling ``state.update`` per execution
  — across policies, block boundaries, window sizes and memo eviction.
* :func:`repro.logs.jsonl.fold_log_jsonl_file`, the ``mine --stream``
  engine, must match ``fold_executions`` over the iterator path on the
  same file: state, first/last activity sets, report, quarantine,
  errors and fold metrics — also when timestamps never repeat.
* The prepared-variant memo inside :meth:`MiningState.update` and
  :meth:`MiningState.fold_sequence` must be invisible: any memo size
  folds to the same payload as the unmemoized state.
* :meth:`Tenant.ingest`'s batched path must preserve the per-line
  contract under strict errors — pre-error executions folded, the line
  counter resting on the offending line.

Deterministic adversarial families pin the known edge cases (ties,
interleavings, junk, late records, tiny memos); hypothesis drives
random mixtures of them over random block/window/memo geometry.
"""

import dataclasses
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.state import MiningState, fold_executions
from repro.errors import LogFormatError, ResourceLimitError
from repro.logs import codec, jsonl
from repro.logs.execution import Execution
from repro.logs.fastfold import FoldingIngestStream
from repro.logs.ingest import (
    INGEST_BLOCK_LINES,
    IngestLimits,
    IngestReport,
    IngestStream,
    Quarantine,
)
from repro.obs import ObsRecorder
from repro.service.registry import Tenant, TenantConfig

POLICIES = ("strict", "skip", "repair")
BLOCK_SIZES = (1, 3, 7, 100)


def line(activity, eid, event_type, time, output=None, process="p"):
    return json.dumps(
        {
            "activity": activity,
            "execution": eid,
            "output": output,
            "process": process,
            "time": time,
            "type": event_type,
        },
        sort_keys=True,
    )


def reordered(raw):
    """The same record with its keys in reverse order: valid JSON that
    the canonical grammar does not match."""
    return json.dumps(dict(reversed(json.loads(raw).items())))


def reorder_some(lines, rng):
    """Rewrite about half of the canonical lines with reordered keys."""
    return [
        reordered(raw)
        if raw.startswith('{"activity"') and rng.random() < 0.5
        else raw
        for raw in lines
    ]


def reference_run(lines, policy, window):
    """Per-line pushes into an unmemoized state — the ground truth."""
    quarantine = Quarantine()
    stream = IngestStream(
        jsonl.record_from_json,
        policy=policy,
        quarantine=quarantine,
        window=window,
    )
    state = MiningState(memo_size=0)
    error = None
    try:
        for number, raw in enumerate(lines, 1):
            if not raw.strip():
                continue  # readers skip blanks before push
            for execution in stream.push(number, raw):
                state.update(execution)
        for execution in stream.flush():
            state.update(execution)
    except Exception as exc:  # noqa: BLE001 — parity includes errors
        error = repr(exc)
    return (
        state.to_payload(),
        dataclasses.asdict(stream.report),
        [dataclasses.asdict(item) for item in quarantine.items],
        error,
    )


def fast_run(lines, policy, window, block=7, memo_size=65536, scan=True):
    """Block pushes through the folding fast path."""
    quarantine = Quarantine()
    stream = FoldingIngestStream(
        jsonl.record_from_json,
        state=MiningState(memo_size=memo_size),
        policy=policy,
        quarantine=quarantine,
        window=window,
        parse_batch=jsonl.parse_batch if scan else None,
    )
    error = None
    try:
        for index in range(0, len(lines), block):
            stream.push_batch(index + 1, lines[index : index + block])
        stream.flush()
    except Exception as exc:  # noqa: BLE001
        error = repr(exc)
    return (
        stream.state.to_payload(),
        dataclasses.asdict(stream.report),
        [dataclasses.asdict(item) for item in quarantine.items],
        error,
    )


def _clean_repeat():
    lines, time = [], 0.0
    for eid in range(6):
        for activity in "abc":
            lines.append(line(activity, f"e{eid}", "START", time))
            time += 0.5
            lines.append(
                line(activity, f"e{eid}", "END", time, [1.0, 2.5])
            )
            time += 0.5
    return lines


def _repeated_activity():
    lines = []
    for eid in range(3):
        time = 0.0
        for activity in ("a", "b", "a"):
            lines.append(line(activity, f"r{eid}", "START", time))
            time += 1
            lines.append(line(activity, f"r{eid}", "END", time))
            time += 1
    return lines


def _overlap():
    lines = []
    for eid in range(3):
        lines += [
            line("a", f"o{eid}", "START", 0.0),
            line("b", f"o{eid}", "START", 0.5),
            line("a", f"o{eid}", "END", 1.0),
            line("b", f"o{eid}", "END", 1.5),
        ]
    return lines


def _ties_disorder():
    lines = []
    for eid in range(3):
        lines += [
            line("a", f"t{eid}", "START", 1.0),
            line("a", f"t{eid}", "END", 1.0),
            line("b", f"t{eid}", "END", 0.5),
            line("b", f"t{eid}", "START", 0.25),
        ]
    return lines


def _junk():
    return [
        line("a", "j0", "START", 0.0),
        "",
        "   ",
        "{not json",
        # Field order the canonical scanner cannot prove.
        '{"execution": "j9", "activity": "x", "output": null, '
        '"process": "p", "time": 1.0, "type": "START"}',
        line("a", "j0", "END", 1.0),
        # Escapes, non-finite time, START with output.
        '{"activity": "a\\"b", "execution": "j1", "output": null, '
        '"process": "p", "time": 2.0, "type": "START"}',
        '{"activity": "c", "execution": "j2", "output": null, '
        '"process": "p", "time": 1e999, "type": "START"}',
        '{"activity": "c", "execution": "j3", "output": [1.0], '
        '"process": "p", "time": 3.0, "type": "START"}',
        line("d", "j4", "START", 4.0),
        line("d", "j4", "END", 5.0),
    ]


def _mixed_process():
    return [
        line("a", "m0", "START", 0.0),
        line("a", "m0", "END", 1.0),
        line("b", "m1", "START", 2.0, process="q"),
        line("b", "m1", "END", 3.0),
    ]


def _late_record():
    lines = [line("a", "l0", "START", 0.0), line("a", "l0", "END", 1.0)]
    for k in range(8):
        lines.append(line("x", f"lf{k}", "START", 2.0 + k))
        lines.append(line("x", f"lf{k}", "END", 2.5 + k))
    lines.append(line("z", "l0", "START", 99.0))
    return lines


#: name -> (lines, window, MiningState prepared-variant memo size)
CASES = {
    "clean-repeat": (_clean_repeat(), 64, 65536),
    "repeated-activity": (_repeated_activity(), 64, 65536),
    "overlap": (_overlap(), 64, 65536),
    "ties-disorder": (_ties_disorder(), 64, 65536),
    "unmatched-end": (
        [
            line("a", "u0", "END", 1.0),
            line("b", "u1", "START", 2.0),
            line("b", "u1", "END", 3.0),
        ],
        64,
        65536,
    ),
    "junk": (_junk(), 64, 65536),
    "mixed-process": (_mixed_process(), 64, 65536),
    "late-record": (_late_record(), 4, 65536),
    "tiny-memo": (_clean_repeat(), 64, 2),
    "memo-off": (_clean_repeat(), 64, 0),
}


class TestAdversarialParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_case_family(self, name, policy):
        lines, window, memo_size = CASES[name]
        expected = reference_run(lines, policy, window)
        for block in BLOCK_SIZES:
            for scan in (True, False):
                got = fast_run(
                    lines,
                    policy,
                    window,
                    block=block,
                    memo_size=memo_size,
                    scan=scan,
                )
                assert got == expected, (
                    f"{name}/{policy} diverged at block={block} "
                    f"scan={scan}"
                )


@st.composite
def line_soups(draw):
    """A random mixture of clean, messy and junk lines plus geometry."""
    seed = draw(st.integers(min_value=0, max_value=99_999))
    rng = random.Random(seed)
    lines = []
    time = 0.0
    for eid in range(draw(st.integers(min_value=1, max_value=8))):
        shape = rng.choice(("clean", "clean", "overlap", "disorder"))
        activities = [
            rng.choice("abcd")
            for _ in range(rng.randint(1, 4))
        ]
        block = []
        if shape == "clean":
            for activity in dict.fromkeys(activities):
                block.append(line(activity, f"e{eid}", "START", time))
                time += 0.5
                block.append(line(activity, f"e{eid}", "END", time))
                time += 0.5
        elif shape == "overlap":
            for offset, activity in enumerate(activities):
                block.append(
                    line(activity, f"e{eid}", "START", time + offset)
                )
            for offset, activity in enumerate(activities):
                block.append(
                    line(
                        activity,
                        f"e{eid}",
                        "END",
                        time + len(activities) + offset,
                    )
                )
            time += 2 * len(activities)
        else:  # disorder: shuffled events, tie-prone timestamps
            for activity in activities:
                block.append(
                    line(activity, f"e{eid}", "START", rng.randint(0, 3))
                )
                block.append(
                    line(activity, f"e{eid}", "END", rng.randint(0, 3))
                )
            rng.shuffle(block)
        lines.extend(block)
        if rng.random() < 0.3:
            lines.append(
                rng.choice(
                    [
                        "",
                        "   ",
                        "{broken",
                        line("z", f"x{eid}", "START", 0.0, process="q"),
                        '{"activity": "n", "execution": "n", '
                        '"output": null, "process": "p", '
                        '"time": 1e999, "type": "START"}',
                    ]
                )
            )
    if draw(st.booleans()):
        # Whole-soup repetition under fresh ids: memo-hit territory.
        lines = lines + [
            raw.replace('"e', '"f') if '"e' in raw else raw
            for raw in lines
        ]
    if draw(st.booleans()):
        lines = reorder_some(lines, rng)
    window = draw(st.sampled_from([2, 4, 64, None]))
    block = draw(st.integers(min_value=1, max_value=16))
    memo_size = draw(st.sampled_from([0, 2, 65536]))
    policy = draw(st.sampled_from(POLICIES))
    scan = draw(st.booleans())
    return lines, window, block, memo_size, policy, scan


class TestPropertyParity:
    @given(line_soups())
    @settings(max_examples=120, deadline=None)
    def test_push_batch_matches_per_line(self, soup):
        lines, window, block, memo_size, policy, scan = soup
        expected = reference_run(lines, policy, window)
        got = fast_run(
            lines,
            policy,
            window,
            block=block,
            memo_size=memo_size,
            scan=scan,
        )
        assert got == expected

    @given(line_soups())
    @settings(max_examples=120, deadline=None)
    def test_plain_push_batch_matches_per_line(self, soup):
        """The scanner-fed plain stream returns the executions, report,
        quarantine and error that per-line pushing does."""
        lines, window, block, _, policy, _ = soup
        runs = []
        for scanner in (None, jsonl.parse_batch):
            quarantine = Quarantine()
            stream = IngestStream(
                jsonl.record_from_json,
                policy=policy,
                quarantine=quarantine,
                window=window,
                parse_batch=scanner,
            )
            executions = []
            error = None
            try:
                if scanner is None:
                    for number, raw in enumerate(lines, 1):
                        if raw.strip():
                            executions += stream.push(number, raw)
                else:
                    for index in range(0, len(lines), block):
                        stream.push_batch(
                            index + 1,
                            lines[index : index + block],
                            out=executions,
                        )
                executions += stream.flush()
            except Exception as exc:  # noqa: BLE001
                error = repr(exc)
            runs.append(
                (
                    [(e.execution_id, e.records) for e in executions],
                    dataclasses.asdict(stream.report),
                    [dataclasses.asdict(item) for item in quarantine],
                    error,
                )
            )
        assert runs[1] == runs[0]

    @given(
        st.lists(
            st.lists(
                st.sampled_from("abcde"), min_size=1, max_size=5
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0, 1, 2, 65536]),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_memo_is_invisible(self, sequences, memo_size):
        """Any memo size (incl. eviction-heavy) folds identically."""
        executions = [
            Execution.from_sequence(
                sequence, execution_id=f"e{index:03d}",
                start_time=float(index),
            )
            for index, sequence in enumerate(sequences)
        ]
        # Repeat the log so small memos evict and re-miss.
        executions = executions + executions
        plain = MiningState(memo_size=0)
        memoized = MiningState(memo_size=memo_size)
        for execution in executions:
            plain.update(execution)
            memoized.update(execution)
        assert memoized.to_payload() == plain.to_payload()
        if memo_size:
            assert memoized.memo_hits + memoized.memo_misses == len(
                executions
            )

    @given(
        st.lists(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        ),
        st.booleans(),
        st.sampled_from([0, 1, 2, 65536]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fold_sequence_matches_update(
        self, sequences, labelled, memo_size
    ):
        """Folding by activity sequence is update() on the execution:
        same payload, same memo traffic, repeats and relabelling
        included."""
        by_update = MiningState(labelled=labelled, memo_size=memo_size)
        by_sequence = MiningState(labelled=labelled, memo_size=memo_size)
        for index, sequence in enumerate(sequences + sequences):
            by_update.update(
                Execution.from_sequence(
                    sequence, execution_id=f"e{index}",
                    start_time=float(index),
                )
            )
            by_sequence.fold_sequence(sequence)
        assert by_sequence.to_payload() == by_update.to_payload()
        assert (
            by_sequence.memo_hits,
            by_sequence.memo_misses,
            by_sequence.memo_evictions,
        ) == (
            by_update.memo_hits,
            by_update.memo_misses,
            by_update.memo_evictions,
        )

    def test_fold_sequence_handles_repeats_and_labelled(self):
        plain = MiningState()
        plain.fold_sequence(["a", "b", "a"])
        # The plain view drops the self-pair a repeat implies.
        assert set(plain.pair_frequencies()) == {("a", "b"), ("b", "a")}
        labelled = MiningState(labelled=True)
        labelled.fold_sequence(["a", "b", "a"])
        assert labelled.has_repetition()
        assert set(labelled.pair_frequencies()) == {
            (("a", 1), ("b", 1)),
            (("a", 1), ("a", 2)),
            (("b", 1), ("a", 2)),
        }


#: The fold metrics both streaming paths emit with the same meaning.
FOLD_METRICS = (
    "repro_stream_executions_total",
    "repro_ingest_variant_memo_total",
)


def _fold_metrics(recorder):
    return sorted(
        (metric.name, metric.labels, metric.value)
        for metric in recorder.registry
        if metric.name in FOLD_METRICS
    )


def _fold_outcome(state, firsts, lasts, report, quarantine, recorder,
                  error):
    outcome = {
        "report": dataclasses.asdict(report),
        "quarantine": [
            dataclasses.asdict(item) for item in quarantine.items
        ],
        "error": error,
    }
    if error is None:
        # A strict error ends both runs; the iterator path then never
        # hands the fold the rest of the raising block, so only the
        # accounting is comparable past that point.
        outcome.update(
            payload=state.to_payload(),
            firsts=sorted(firsts),
            lasts=sorted(lasts),
            metrics=_fold_metrics(recorder),
        )
    return outcome


def iterator_fold(path, policy, window, labelled, memo_size):
    """``fold_executions`` over the execution iterator: the reference
    ``mine --stream`` keeps for journaled folds and the text codec."""
    quarantine, report, recorder = Quarantine(), IngestReport(), (
        ObsRecorder()
    )
    state = MiningState(labelled=labelled, memo_size=memo_size)
    firsts, lasts = set(), set()

    def tracked(executions):
        for execution in executions:
            if len(execution):
                firsts.add(execution.first_activity)
                lasts.add(execution.last_activity)
            yield execution

    error = None
    try:
        fold_executions(
            tracked(
                jsonl.iter_ingest_log_jsonl_file(
                    path,
                    policy=policy,
                    quarantine=quarantine,
                    report=report,
                    window=window,
                )
            ),
            labelled=labelled,
            state=state,
            recorder=recorder,
        )
    except Exception as exc:  # noqa: BLE001 — parity includes errors
        error = repr(exc)
    return _fold_outcome(
        state, firsts, lasts, report, quarantine, recorder, error
    )


def fused_fold(path, policy, window, labelled, memo_size):
    """The fused block fold ``mine --stream`` runs on JSON lines."""
    quarantine, report, recorder = Quarantine(), IngestReport(), (
        ObsRecorder()
    )
    state = MiningState(labelled=labelled, memo_size=memo_size)
    firsts = lasts = set()
    error = None
    try:
        folded = jsonl.fold_log_jsonl_file(
            path,
            policy=policy,
            quarantine=quarantine,
            report=report,
            window=window,
            state=state,
            labelled=labelled,
            recorder=recorder,
        )
        assert folded.state is state
        firsts, lasts = folded.first_activities, folded.last_activities
    except Exception as exc:  # noqa: BLE001
        error = repr(exc)
    return _fold_outcome(
        state, firsts, lasts, report, quarantine, recorder, error
    )


def _execution_lines(eid, shape, activities, base, rng):
    lines, time = [], base
    if shape in ("clean", "repeat"):
        # "repeat" keeps repeated activities: a clean bucket whose
        # labelled view needs occurrence relabelling.
        sequence = (
            activities if shape == "repeat"
            else list(dict.fromkeys(activities))
        )
        for activity in sequence:
            lines.append(line(activity, eid, "START", time))
            lines.append(line(activity, eid, "END", time + 0.5, [1.0]))
            time += 1.0
    elif shape == "touching":
        # Arrival order, but instants and touching intervals tie on
        # time, so the arrival order alone no longer fixes the trace.
        for activity in activities:
            end = time + rng.choice((0.0, 0.5))
            lines.append(line(activity, eid, "START", time))
            lines.append(line(activity, eid, "END", end))
            time = end
    elif shape == "overlap":
        for offset, activity in enumerate(activities):
            lines.append(line(activity, eid, "START", time + offset))
        for offset, activity in enumerate(activities):
            lines.append(
                line(activity, eid, "END",
                     time + len(activities) + offset)
            )
    else:  # disorder: shuffled events on tie-prone timestamps
        for activity in activities:
            lines.append(
                line(activity, eid, "START", base + rng.randint(0, 3))
            )
            lines.append(
                line(activity, eid, "END", base + rng.randint(0, 3))
            )
        rng.shuffle(lines)
    return lines


@st.composite
def fold_logs(draw):
    """A log drawn from a small trace pool, plus fold geometry.

    ``shifted`` gives every execution its own time base, so no line
    repeats even with the id cut out (real logs); otherwise repeats of
    a pool trace are byte-identical but for the id (replayed logs).
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=99_999)))
    pool = [
        (
            rng.choice(("clean", "clean", "repeat", "touching",
                        "overlap", "disorder")),
            [rng.choice("abcd") for _ in range(rng.randint(1, 4))],
        )
        for _ in range(rng.randint(1, 4))
    ]
    shifted = draw(st.booleans())
    executions = []
    for index in range(draw(st.integers(min_value=1, max_value=10))):
        shape, activities = pool[rng.randrange(len(pool))]
        executions.append(
            _execution_lines(
                f"e{index}", shape, activities,
                100.0 * index if shifted else 0.0, rng,
            )
        )
    if draw(st.booleans()):
        # Interleave neighbours record by record: open windows overlap.
        for index in range(0, len(executions) - 1, 2):
            first, second = executions[index], executions[index + 1]
            merged = [
                raw
                for pair in zip(first, second)
                for raw in pair
            ]
            shorter = min(len(first), len(second))
            merged += first[shorter:] + second[shorter:]
            executions[index], executions[index + 1] = merged, []
    lines = []
    for block in executions:
        lines.extend(block)
        if rng.random() < 0.2:
            lines.append(
                rng.choice(
                    [
                        "",
                        "{broken",
                        line("z", "x", "START", 0.0, process="q"),
                        '{"activity": "n", "execution": "n", '
                        '"output": null, "process": "p", '
                        '"time": 1e999, "type": "START"}',
                    ]
                )
            )
    if draw(st.booleans()):
        lines = reorder_some(lines, rng)
    window = draw(st.sampled_from([1, 2, 4, 64, None]))
    policy = draw(st.sampled_from(POLICIES))
    labelled = draw(st.booleans())
    memo_size = draw(st.sampled_from([0, 2, 65536]))
    return lines, window, policy, labelled, memo_size


def _both_folds(lines, policy, window, labelled, memo_size=65536):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "log.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(raw + "\n" for raw in lines)
        return (
            fused_fold(path, policy, window, labelled, memo_size),
            iterator_fold(path, policy, window, labelled, memo_size),
        )


class TestFusedFileFold:
    @given(fold_logs())
    @settings(max_examples=150, deadline=None)
    def test_fused_fold_matches_iterator_fold(self, drawn):
        lines, window, policy, labelled, memo_size = drawn
        fused, reference = _both_folds(
            lines, policy, window, labelled, memo_size
        )
        assert fused == reference

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("labelled", (False, True))
    def test_case_family(self, name, policy, labelled):
        lines, window, memo_size = CASES[name]
        fused, reference = _both_folds(
            lines, policy, window, labelled, memo_size
        )
        assert fused == reference

    def test_unique_timestamps_keep_the_line_memo_small(self):
        """Lines that never repeat switch the line memo off after its
        warm-up block and the one that judges it: between blocks it
        never holds more than one block, and it ends empty."""
        lines = []
        for index in range(2_000):
            time = 10.0 * index
            for offset, activity in enumerate("abcde"):
                lines.append(
                    line(activity, f"u{index}", "START", time + offset)
                )
                lines.append(
                    line(activity, f"u{index}", "END",
                         time + offset + 0.5)
                )
        assert len(lines) >= 20_000
        stream = FoldingIngestStream(
            jsonl.record_from_json,
            parse_batch=jsonl.parse_batch,
        )
        for offset in range(0, len(lines), INGEST_BLOCK_LINES):
            stream.push_batch(
                offset + 1, lines[offset : offset + INGEST_BLOCK_LINES]
            )
            assert len(stream._line_memo) <= INGEST_BLOCK_LINES
        stream.close()
        assert stream._line_memo == {}
        assert stream.line_memo_hits == 0
        assert stream.line_memo_misses <= 2 * INGEST_BLOCK_LINES
        assert stream.state.execution_count == 2_000

    def test_byte_repeated_traces_keep_the_line_memo_on(self):
        pool = _clean_repeat()
        lines = [
            raw.replace('"execution": "', f'"execution": "r{repeat}-')
            for repeat in range(50)
            for raw in pool
        ]
        stream = FoldingIngestStream(
            jsonl.record_from_json,
            parse_batch=jsonl.parse_batch,
        )
        for offset in range(0, len(lines), 64):
            stream.push_batch(offset + 1, lines[offset : offset + 64])
        stream.close()
        assert stream.line_memo_hits > 0.9 * len(lines)
        assert stream.state.execution_count == 300


class TestScanners:
    def test_reordered_keys_scan_without_stopping(self):
        canonical = _clean_repeat()
        lines = [reordered(raw) for raw in canonical]
        for memo in (None, {}):
            entries, bad = jsonl.parse_batch(lines, 1, memo)
            assert bad is None
            assert [entry[0] for entry in entries] == list(
                range(1, len(lines) + 1)
            )
            expected, _ = jsonl.parse_batch(canonical, 1)
            assert [entry[2:] for entry in entries] == [
                entry[2:] for entry in expected
            ]
        # Each reordered line was a miss the memo counts.
        assert len(memo) == len(lines)

    def test_coerced_names_go_to_the_line_parser(self):
        line = '{"activity": 7, "execution": "e", "process": "p", '
        line += '"time": 1.0, "type": "START"}'
        entries, bad = jsonl.parse_batch([line], 5)
        assert entries == [] and bad == (5, line)

    def test_text_memo_answers_repeats_but_not_comments(self):
        lines = [
            "\tx1\ta\tSTART\t1\n",
            "\tx2\ta\tSTART\t1\n",
            # Cuts to the same text as the lines above, but a comment.
            "\t#x3\ta\tSTART\t1\n",
        ]
        memo = {}
        entries, bad = codec.parse_batch(lines, 1, memo)
        assert bad is None
        assert [(e[0], e[3]) for e in entries] == [(1, "x1"), (2, "x2")]
        assert len(memo) == 1
        assert entries[1][4] is entries[0][4]


class TestResourceLimitLineNumbers:
    @pytest.mark.parametrize(
        "guard",
        ("max_executions", "max_events_per_execution", "max_activities"),
    )
    def test_every_entry_point_reports_the_line(self, tmp_path, guard):
        lines = _clean_repeat()
        limits = IngestLimits(**{guard: 2})
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def per_line():
            stream = IngestStream(jsonl.record_from_json, limits=limits)
            for number, raw in enumerate(lines, 1):
                stream.push(number, raw)

        def block():
            IngestStream(
                jsonl.record_from_json,
                limits=limits,
                parse_batch=jsonl.parse_batch,
            ).push_batch(1, lines)

        def fused():
            jsonl.fold_log_jsonl_file(path, limits=limits)

        seen = []
        for run in (per_line, block, fused):
            with pytest.raises(ResourceLimitError) as excinfo:
                run()
            error = excinfo.value
            seen.append((error.limit, str(error), error.line_number))
        assert seen[0][0] == guard
        assert seen[0][2] is not None
        assert seen[1:] == [seen[0], seen[0]]


def _log_with_bad_lines(path, repeats=6):
    """Sequential, cyclic and overlapping traces of one s...f process,
    half of them time-shifted, with junk and foreign-process lines."""
    pool = (
        ("s", "a", "b", "f"),
        ("s", "b", "a", "f"),
        ("s", "a", "b", "a", "f"),
        ("s", ("a", "b"), "f"),
    )
    lines = []
    for repeat in range(repeats):
        for index, trace in enumerate(pool):
            eid = f"x{repeat}-{index}"
            time = 100.0 * repeat if repeat % 2 else 0.0
            for step in trace:
                # A tuple is a pair of overlapping instances.
                group = step if isinstance(step, tuple) else (step,)
                for offset, activity in enumerate(group):
                    lines.append(
                        line(activity, eid, "START", time + offset)
                    )
                for offset, activity in enumerate(group):
                    lines.append(
                        line(activity, eid, "END",
                             time + len(group) + offset)
                    )
                time += 2 * len(group) + 1
        lines.append("{broken")
        lines.append(line("q", f"m{repeat}", "START", 0.0, process="q"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFusedStreamCli:
    @pytest.mark.parametrize(
        "algorithm", ("auto", "general-dag", "cyclic")
    )
    def test_matches_iterator_path_byte_for_byte(
        self, tmp_path, capsys, algorithm
    ):
        """Same stdout, stderr, exit status, dead letters and state file
        as the iterator path (``--journal`` keeps it)."""
        log = _log_with_bad_lines(tmp_path / "bad.jsonl")
        dead = tmp_path / "dead.jsonl"
        state_out = tmp_path / "state.json"
        argv = [
            "mine", str(log), "--stream", "--format", "edges",
            "--on-error", "skip", "--algorithm", algorithm,
            "--quarantine", str(dead), "--state-out", str(state_out),
        ]
        runs = []
        for extra in ([], ["--journal", str(tmp_path / "journal")]):
            # The dead-letter sink appends; start each run empty.
            dead.unlink(missing_ok=True)
            status = main(argv + extra)
            captured = capsys.readouterr()
            runs.append(
                (
                    status,
                    captured.out,
                    captured.err,
                    dead.read_bytes(),
                    state_out.read_bytes(),
                )
            )
        assert runs[0][0] == 3
        assert runs[0] == runs[1]

    def test_profile_reports_the_fold(self, tmp_path, capsys):
        log = _log_with_bad_lines(tmp_path / "bad.jsonl")
        status = main(
            [
                "mine", str(log), "--stream", "--format", "edges",
                "--on-error", "skip", "--profile",
            ]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert (
            "  stream: 204 records, 24 executions, variant memo "
            "15 hits / 9 misses, line memo hit ratio "
        ) in err


class TestTenantBatchedIngest:
    def _tenant(self, tmp_path, name, **overrides):
        # The tenant's process name is owned by the URL; every test
        # log speaks process "p", so each tenant mines "p" from its
        # own directory.
        config = TenantConfig(**overrides)
        tenant = Tenant("p", tmp_path / name, config)
        tenant.recover()
        return tenant

    def _payload(self, tenant):
        return tenant.session.state.to_payload()

    def test_batch_matches_per_line_tenant(self, tmp_path):
        lines = _junk() + _clean_repeat()
        batched = self._tenant(tmp_path, "batched")
        batched.ingest([raw for raw in lines if raw.strip()])
        batched.flush()
        single = self._tenant(tmp_path, "single")
        for raw in lines:
            if raw.strip():
                single.ingest([raw])
        single.flush()
        assert self._payload(batched) == self._payload(single)
        assert batched.report.accepted_executions == (
            single.report.accepted_executions
        )
        batched.close()
        single.close()

    def test_strict_error_restores_line_accounting(self, tmp_path):
        good = _clean_repeat()
        lines = good[:5] + ["{broken"] + good[5:]
        tenant = self._tenant(tmp_path, "strict", policy="strict")
        with pytest.raises(LogFormatError) as excinfo:
            tenant.ingest(lines)
        assert excinfo.value.line_number == 6
        # The counter rests on the offending line: the retry resumes
        # numbering right after it, as per-line pushing would.
        assert tenant._line_number == 6
        tenant.ingest(good[5:])
        tenant.flush()
        reference = self._tenant(tmp_path, "ref", policy="strict")
        reference.ingest(good)
        reference.flush()
        assert self._payload(tenant) == self._payload(reference)
        tenant.close()
        reference.close()

    def test_strict_error_still_folds_prior_executions(self, tmp_path):
        # e0's six lines, e1's six lines, then a broken line.  With a
        # 4-record window e0 expires while e1's records stream past, so
        # it is already folded when line 13 raises.
        lines = _clean_repeat()[:12] + ["{broken"]
        tenant = self._tenant(
            tmp_path, "fold", policy="strict", window=4
        )
        with pytest.raises(LogFormatError):
            tenant.ingest(lines)
        assert tenant.session.state.execution_count == 1
        tenant.close()
