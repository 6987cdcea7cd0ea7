"""Tests for the extended CLI commands: simulate, compare, evolve, timing."""

import pytest

from repro.cli import build_parser, main
from repro.model.builder import ProcessBuilder
from repro.model.conditions import attr_gt
from repro.model.serialize import load_model, save_model


@pytest.fixture
def model_file(tmp_path):
    model = (
        ProcessBuilder("demo")
        .edge("A", "B")
        .edge("A", "C", condition=attr_gt(0, 50))
        .edge("B", "D")
        .edge("C", "D")
        .build()
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    return path


@pytest.fixture
def simulated_log(tmp_path, model_file, capsys):
    log_path = tmp_path / "sim.tsv"
    assert main(
        [
            "simulate", str(model_file), str(log_path),
            "--executions", "80", "--seed", "3",
        ]
    ) == 0
    capsys.readouterr()
    return log_path


class TestSimulate:
    def test_simulate_writes_log(self, tmp_path, model_file, capsys):
        out = tmp_path / "log.tsv"
        code = main(
            ["simulate", str(model_file), str(out), "--executions", "5"]
        )
        assert code == 0
        assert "simulated 5 executions" in capsys.readouterr().out
        assert out.exists()

    def test_simulate_then_mine(self, simulated_log, capsys):
        assert main(["mine", str(simulated_log)]) == 0
        out = capsys.readouterr().out
        assert "A -> B, C" in out

    def test_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnicate\n")
        assert main(
            ["simulate", str(bad), str(tmp_path / "x.tsv")]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_agreeing_model_is_clean(
        self, model_file, simulated_log, capsys
    ):
        code = main(["compare", str(model_file), str(simulated_log)])
        assert code == 0
        assert "no differences" in capsys.readouterr().out

    def test_divergent_model_exits_2(
        self, tmp_path, simulated_log, capsys
    ):
        stale = (
            ProcessBuilder("stale").chain("A", "B", "D").build()
        )
        stale_path = tmp_path / "stale.txt"
        save_model(stale, stale_path)
        code = main(["compare", str(stale_path), str(simulated_log)])
        assert code == 2
        out = capsys.readouterr().out
        assert "C" in out


class TestEvolve:
    def test_evolve_writes_model(
        self, tmp_path, simulated_log, capsys
    ):
        stale = ProcessBuilder("stale").chain("A", "B", "D").build()
        stale_path = tmp_path / "stale.txt"
        save_model(stale, stale_path)
        evolved_path = tmp_path / "evolved.txt"
        code = main(
            [
                "evolve", str(stale_path), str(simulated_log),
                "--output", str(evolved_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "added" in out
        evolved = load_model(evolved_path)
        assert "C" in evolved.activity_names

    def test_evolve_no_changes(self, model_file, simulated_log, capsys):
        code = main(["evolve", str(model_file), str(simulated_log)])
        assert code == 0
        assert "confirms" in capsys.readouterr().out


class TestTiming:
    def test_timing_report(self, simulated_log, capsys):
        assert main(["timing", str(simulated_log)]) == 0
        out = capsys.readouterr().out
        assert "execution makespan" in out
        assert "activity durations" in out


class TestCyclicMineViaCli:
    def test_cyclic_algorithm_selected(self, tmp_path, capsys):
        from repro.logs.codec import write_log_file
        from repro.logs.event_log import EventLog

        log = EventLog.from_sequences(
            ["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"],
            process_name="example8",
        )
        path = tmp_path / "cyclic.tsv"
        write_log_file(log, path)
        assert main(["mine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# algorithm: cyclic" in out
        # The B/C cycle shows in the adjacency rendering.
        assert "C -> B" in out or "C -> B," in out

    def test_explicit_cyclic_flag(self, tmp_path, capsys):
        from repro.logs.codec import write_log_file
        from repro.logs.event_log import EventLog

        log = EventLog.from_sequences(["ABC", "ACB"])
        path = tmp_path / "plain.tsv"
        write_log_file(log, path)
        assert main(
            ["mine", str(path), "--algorithm", "cyclic"]
        ) == 0
        assert "# algorithm: cyclic" in capsys.readouterr().out


class TestVariantsAndConvert:
    def test_variants_command(self, simulated_log, capsys):
        assert main(["variants", str(simulated_log), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "variants" in out
        assert "A B" in out or "A C" in out

    def test_convert_roundtrip(self, tmp_path, simulated_log, capsys):
        jsonl_path = tmp_path / "log.jsonl"
        assert main(
            ["convert", str(simulated_log), str(jsonl_path)]
        ) == 0
        capsys.readouterr()
        back_path = tmp_path / "back.tsv"
        assert main(["convert", str(jsonl_path), str(back_path)]) == 0
        capsys.readouterr()
        from repro.logs.codec import read_log_file

        original = read_log_file(simulated_log)
        roundtripped = read_log_file(back_path)
        assert roundtripped.sequences() == original.sequences()


class TestOneSerialPath:
    """Mining has one serial path: the worker-pool and kernel knobs are
    gone, so argparse rejects them instead of silently ignoring them."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["mine", "{log}", "--jobs", "2"],
            ["mine", "{log}", "--kernel", "bitset"],
            ["mine", "{log}", "--stream", "--fold-retries", "1"],
            ["merge-states", "{state}", "--jobs", "2"],
            ["serve", "{data}", "--kernel", "bitset"],
        ],
        ids=["mine-jobs", "mine-kernel", "mine-fold-retries",
             "merge-states-jobs", "serve-kernel"],
    )
    def test_removed_flags_are_argparse_errors(
        self, tmp_path, simulated_log, capsys, extra
    ):
        paths = {
            "log": str(simulated_log),
            "state": str(tmp_path / "shard.state"),
            "data": str(tmp_path / "data"),
        }
        argv = [part.format(**paths) for part in extra]
        # Parse only: nothing may run (a serve would start a daemon).
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
