"""Tests for layered rendering, log sampling, and the newest CLI flags."""

import pytest

from repro.cli import main
from repro.core.cyclic import mine_cyclic
from repro.graphs.digraph import DiGraph
from repro.graphs.render import to_layered_ascii
from repro.logs.codec import write_log_file
from repro.logs.event_log import EventLog
from repro.model.builder import ProcessBuilder
from repro.model.serialize import save_model


class TestLayeredAscii:
    def test_layers_follow_longest_path_depth(self):
        g = DiGraph(
            edges=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
                   ("A", "D")]
        )
        text = to_layered_ascii(g)
        first_line = text.splitlines()[0]
        assert first_line == "[A]  ->  [B C]  ->  [D]"

    def test_single_node(self):
        assert to_layered_ascii(DiGraph(nodes=["X"])) == "[X]"

    def test_chain(self):
        g = DiGraph(edges=[("A", "B"), ("B", "C")])
        assert to_layered_ascii(g).splitlines()[0] == (
            "[A]  ->  [B]  ->  [C]"
        )

    def test_cyclic_graph_raises(self):
        from repro.errors import CycleError

        g = DiGraph(edges=[("A", "B"), ("B", "A")])
        with pytest.raises(CycleError):
            to_layered_ascii(g)

    def test_custom_labels(self):
        g = DiGraph(edges=[(("A", 1), ("B", 1))])
        text = to_layered_ascii(g, label=lambda n: f"{n[0]}{n[1]}")
        assert "[A1]  ->  [B1]" in text


class TestLogSample:
    def make_log(self, n=20):
        return EventLog.from_sequences(
            [["A", f"T{i % 4}", "Z"] for i in range(n)],
            process_name="sampled",
        )

    def test_sample_size(self):
        log = self.make_log()
        sampled = log.sample(7, seed=1)
        assert len(sampled) == 7
        assert sampled.process_name == "sampled"

    def test_sample_preserves_order(self):
        log = self.make_log()
        sampled = log.sample(10, seed=2)
        ids = [e.execution_id for e in sampled]
        original = [e.execution_id for e in log]
        positions = [original.index(i) for i in ids]
        assert positions == sorted(positions)

    def test_oversample_returns_whole_log(self):
        log = self.make_log(5)
        assert len(log.sample(50)) == 5

    def test_deterministic(self):
        log = self.make_log()
        a = [e.execution_id for e in log.sample(6, seed=9)]
        b = [e.execution_id for e in log.sample(6, seed=9)]
        assert a == b

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.make_log().sample(-1)


class TestNewCliFlags:
    @pytest.fixture
    def setup_files(self, tmp_path, capsys):
        model = (
            ProcessBuilder("demo")
            .edge("A", "B")
            .edge("B", "C")
            .edge("A", "C")
            .build()
        )
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        log_path = tmp_path / "log.tsv"
        assert main(
            ["simulate", str(model_path), str(log_path),
             "--executions", "30"]
        ) == 0
        capsys.readouterr()
        return model_path, log_path

    def test_exact_minimize_flag(self, setup_files, capsys):
        _, log_path = setup_files
        assert main(
            ["mine", str(log_path), "--exact-minimize"]
        ) == 0
        out = capsys.readouterr().out
        assert "# exact minimization:" in out
        # The A->C shortcut is never needed (B always runs): minimized
        # output drops it.
        assert "A -> B" in out

    def test_coverage_command(self, setup_files, capsys):
        model_path, log_path = setup_files
        assert main(["coverage", str(model_path), str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "edge coverage:" in out
        # A->C is compatible but never required.
        assert "required=0" in out

    def test_coverage_on_cyclic_model_names_the_cycle(
        self, tmp_path, capsys
    ):
        log = EventLog.from_sequences(
            [
                ["Submit", "Build", "Test", "Release"],
                ["Submit", "Build", "Test", "Repair", "Build", "Test",
                 "Release"],
            ],
            process_name="rework",
        )
        builder = ProcessBuilder("rework")
        for source, target in mine_cyclic(log).edges():
            builder.edge(source, target)
        model_path = tmp_path / "rework.pm"
        save_model(builder.build(), model_path)
        log_path = tmp_path / "rework.log"
        write_log_file(log, log_path)
        assert main(["coverage", str(model_path), str(log_path)]) == 1
        err = capsys.readouterr().err
        assert (
            "error: required-edge coverage needs an acyclic model; "
            f"{model_path} has the cycle "
        ) in err
        assert "Repair -> Build" in err
