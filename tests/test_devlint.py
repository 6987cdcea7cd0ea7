"""Tests for ``repro.devlint`` — the codebase linting itself.

Covers every RL code with a trigger/clean fixture pair, the engine's
suppression and baseline machinery, the CLI surface, the shared-
vocabulary SARIF round-trip through the ``repro.lint`` emitters, and
the two acceptance mutations (a reintroduced raw ``open("w")`` and an
unsorted-set serialization) against copies of the real source files.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.devlint.baseline import (
    Baseline,
    baseline_from_entries,
    load_baseline,
    save_baseline,
)
from repro.devlint.cli import main as devlint_main
from repro.devlint.context import SourceModule
from repro.devlint.emitters import (
    DEVLINT_TOOL_NAME,
    render_json,
    render_sarif,
    render_text,
)
from repro.devlint.engine import (
    CODE_PARSE_ERROR,
    CODE_STALE_SUPPRESSION,
    PROJECT_ARTIFACT,
    DevConfig,
    run_devlint,
    rules_for_report,
)
from repro.devlint.rules import all_dev_rules, get_dev_rule
from repro.lint.diagnostics import Severity
from repro.lint.emitters import render_sarif as lint_render_sarif
from repro.lint.engine import LintReport

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def run_on(
    source,
    filename="pkg/mod.py",
    select=None,
    registry=None,
    project_root=None,
):
    """Run devlint over one in-memory module."""
    module = SourceModule(
        Path("/virtual") / filename,
        filename,
        textwrap.dedent(source),
    )
    config = DevConfig(
        select=frozenset(select) if select else None,
        registry_names=registry,
        project_root=project_root,
    )
    return run_devlint([], config=config, modules=[module])


def codes(report):
    return [diagnostic.code for diagnostic in report.diagnostics]


# ---------------------------------------------------------------------------
# Registry basics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_ten_rules_in_four_families(self):
        rules = all_dev_rules()
        assert len(rules) == 10
        families = {rule.code[:3] for rule in rules}
        assert families == {"RL1", "RL2", "RL3", "RL4"}
        assert [r.code for r in rules] == sorted(r.code for r in rules)

    def test_get_dev_rule(self):
        rule = get_dev_rule("RL101")
        assert rule.name == "raw-artifact-write"
        with pytest.raises(KeyError):
            get_dev_rule("RL999")

    def test_as_lint_rule_carries_metadata(self):
        rule = get_dev_rule("RL403")
        adapted = rule.as_lint_rule()
        assert adapted.code == "RL403"
        assert adapted.severity is rule.severity
        assert adapted.description == rule.description


# ---------------------------------------------------------------------------
# RL1xx durability
# ---------------------------------------------------------------------------
class TestDurabilityRules:
    def test_rl101_triggers_on_raw_write(self):
        report = run_on(
            """
            def save(path, data):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(data)
            """,
            select=["RL101"],
        )
        assert codes(report) == ["RL101"]
        assert report.exit_code == 1

    def test_rl101_triggers_on_write_text(self):
        report = run_on(
            """
            from pathlib import Path

            def save(path, data):
                Path(path).write_text(data)
            """,
            select=["RL101"],
        )
        assert codes(report) == ["RL101"]

    def test_rl101_clean_on_reads_and_durable_module(self):
        clean = run_on(
            """
            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()
            """,
            select=["RL101"],
        )
        assert codes(clean) == []
        exempt = run_on(
            "def write(path, data):\n"
            "    open(path, 'wb').write(data)\n",
            filename="repro/resilience/durable.py",
            select=["RL101"],
        )
        assert codes(exempt) == []

    def test_rl102_triggers_without_fsync(self):
        report = run_on(
            """
            import os

            def rotate(tmp, path):
                os.replace(tmp, path)
            """,
            select=["RL102"],
        )
        assert codes(report) == ["RL102"]

    def test_rl102_clean_with_fsync(self):
        report = run_on(
            """
            import os
            from repro.resilience.durable import fsync_directory

            def rotate(tmp, path):
                os.replace(tmp, path)
                fsync_directory(path.parent)
            """,
            select=["RL102"],
        )
        assert codes(report) == []

    def test_rl103_triggers_outside_resilience(self):
        report = run_on(
            """
            def fallback(path):
                return path.with_name(path.name + ".prev")
            """,
            select=["RL103"],
        )
        assert codes(report) == ["RL103"]
        assert "PREVIOUS_SUFFIX" in report.diagnostics[0].fixit

    def test_rl103_clean_inside_resilience_and_docstrings(self):
        exempt = run_on(
            "CHECKPOINT_NAME = 'checkpoint.json'\n",
            filename="repro/resilience/session.py",
            select=["RL103"],
        )
        assert codes(exempt) == []
        docstring = run_on(
            '"""Talks about checkpoint.json in prose only."""\n',
            select=["RL103"],
        )
        assert codes(docstring) == []


# ---------------------------------------------------------------------------
# RL2xx determinism
# ---------------------------------------------------------------------------
class TestDeterminismRules:
    def test_rl201_triggers_on_set_iteration_in_serializer(self):
        report = run_on(
            """
            def to_payload(edges):
                return [edge for edge in set(edges)]
            """,
            select=["RL201"],
        )
        assert codes(report) == ["RL201"]

    def test_rl201_triggers_on_dict_values(self):
        report = run_on(
            """
            def to_json(table):
                out = []
                for entry in table.values():
                    out.append(entry)
                return out
            """,
            select=["RL201"],
        )
        assert codes(report) == ["RL201"]

    def test_rl201_clean_when_sorted_or_sink_or_noncanonical(self):
        assert (
            codes(
                run_on(
                    "def to_payload(edges):\n"
                    "    return [e for e in sorted(set(edges))]\n",
                    select=["RL201"],
                )
            )
            == []
        )
        assert (
            codes(
                run_on(
                    "def to_payload(edges):\n"
                    "    return sum(e.weight for e in set(edges))\n",
                    select=["RL201"],
                )
            )
            == []
        )
        # Non-canonical function names are out of scope entirely.
        assert (
            codes(
                run_on(
                    "def display(edges):\n"
                    "    return [e for e in set(edges)]\n",
                    select=["RL201"],
                )
            )
            == []
        )

    def test_rl202_triggers_on_wall_clock_and_bare_random(self):
        report = run_on(
            """
            import random
            import time

            def stamp():
                return time.time(), random.random()
            """,
            select=["RL202"],
        )
        assert codes(report) == ["RL202", "RL202"]

    def test_rl202_clean_with_injected_clock_and_seeded_rng(self):
        report = run_on(
            """
            import random

            from repro.resilience.faults import now

            def stamp(seed):
                rng = random.Random(seed)
                return now(), rng.random()
            """,
            select=["RL202"],
        )
        assert codes(report) == []

    def test_rl203_triggers_on_float_spec_in_serializer(self):
        report = run_on(
            """
            def to_text(value):
                return f"duration={value:g}"
            """,
            select=["RL203"],
        )
        assert codes(report) == ["RL203"]

    def test_rl203_clean_with_repr_policy_or_display_renderer(self):
        assert (
            codes(
                run_on(
                    "def to_text(value):\n"
                    "    return f'duration={repr(float(value))}'\n",
                    select=["RL203"],
                )
            )
            == []
        )
        # format_* report renderers produce human output, not
        # round-trippable artifacts.
        assert (
            codes(
                run_on(
                    "def format_summary(value):\n"
                    "    return f'{value:.2f}'\n",
                    select=["RL203"],
                )
            )
            == []
        )


# ---------------------------------------------------------------------------
# RL3xx observability
# ---------------------------------------------------------------------------
class TestObservabilityRules:
    REGISTRY = frozenset({"repro_good_total", "repro_quiet_total"})

    def test_rl301_triggers_on_undeclared_metric(self):
        report = run_on(
            """
            def work(recorder):
                recorder.count("repro_bogus_total")
            """,
            select=["RL301"],
            registry=self.REGISTRY,
        )
        assert codes(report) == ["RL301"]
        assert "repro_bogus_total" in report.diagnostics[0].message

    def test_rl301_clean_on_declared_metric(self):
        report = run_on(
            """
            def work(recorder):
                recorder.count("repro_good_total")
                recorder.count("repro_quiet_total")
            """,
            select=["RL301"],
            registry=self.REGISTRY,
        )
        assert codes(report) == []

    def test_rl302_triggers_on_declared_but_unemitted(self):
        report = run_on(
            """
            def work(recorder):
                recorder.count("repro_good_total")
            """,
            select=["RL302"],
            registry=self.REGISTRY,
        )
        assert codes(report) == ["RL302"]
        assert "repro_quiet_total" in report.diagnostics[0].message
        assert report.entries[0][0] == PROJECT_ARTIFACT

    def test_rl302_skipped_without_registry_or_obs_scan(self):
        report = run_on(
            "def work():\n    return 1\n",
            select=["RL302"],
        )
        assert codes(report) == []

    def test_rl303_triggers_on_spanless_handler(self):
        report = run_on(
            """
            def _cmd_mine(args):
                recorder = _metrics_recorder(args)
                return 0
            """,
            select=["RL303"],
        )
        assert codes(report) == ["RL303"]

    def test_rl303_clean_with_span(self):
        report = run_on(
            """
            def _cmd_mine(args):
                recorder = _metrics_recorder(args)
                with recorder.span("mine"):
                    return 0
            """,
            select=["RL303"],
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# RL4xx concurrency
# ---------------------------------------------------------------------------
class TestConcurrencyRules:
    def test_rl403_triggers_on_swallowing_except(self):
        report = run_on(
            """
            from repro.resilience.faults import maybe_fault

            def choke(payload):
                try:
                    return maybe_fault("point", payload=payload)
                except Exception:
                    return None
            """,
            select=["RL403"],
        )
        assert codes(report) == ["RL403"]

    def test_rl403_clean_when_reraising_or_out_of_scope(self):
        assert (
            codes(
                run_on(
                    """
                    from repro.resilience.faults import maybe_fault

                    def choke(payload):
                        try:
                            return maybe_fault("p", payload=payload)
                        except Exception:
                            raise
                    """,
                    select=["RL403"],
                )
            )
            == []
        )
        # Modules with no fault choke points are out of scope.
        assert (
            codes(
                run_on(
                    "def soft(x):\n"
                    "    try:\n"
                    "        return int(x)\n"
                    "    except Exception:\n"
                    "        return 0\n",
                    select=["RL403"],
                )
            )
            == []
        )


# ---------------------------------------------------------------------------
# Engine: parse errors, suppressions, baseline
# ---------------------------------------------------------------------------
class TestEngine:
    def test_rl001_on_unparsable_module(self):
        report = run_on("def broken(:\n")
        assert codes(report) == [CODE_PARSE_ERROR]
        assert report.exit_code == 2

    def test_suppression_masks_finding(self):
        report = run_on(
            "def save(path, data):\n"
            "    h = open(path, 'w')  # devlint: ignore[RL101]\n"
            "    h.write(data)\n",
            select=["RL101", "RL002"],
        )
        assert codes(report) == []
        assert report.suppressed == 1

    def test_stale_suppression_is_an_error(self):
        report = run_on(
            "def load(path):  # devlint: ignore[RL101]\n"
            "    return open(path).read()\n",
            select=["RL101", "RL002"],
        )
        assert codes(report) == [CODE_STALE_SUPPRESSION]
        assert report.exit_code == 2

    def test_stale_suppression_not_judged_when_rule_disabled(self):
        report = run_on(
            "def load(path):  # devlint: ignore[RL101]\n"
            "    return open(path).read()\n",
            select=["RL201"],
        )
        assert codes(report) == []

    def test_select_and_ignore_prefixes(self):
        source = """
        import time

        def save(path):
            with open(path, "w") as h:
                h.write(str(time.time()))
        """
        both = run_on(source, select=["RL1", "RL2"])
        assert codes(both) == ["RL101", "RL202"]
        config_ignored = run_on(source, select=["RL101"])
        assert codes(config_ignored) == ["RL101"]

    def test_baseline_round_trip(self, tmp_path):
        report = run_on(
            "def save(path, data):\n"
            "    open(path, 'w').write(data)\n",
            select=["RL101"],
        )
        assert report.exit_code == 1
        baseline = baseline_from_entries(report.entries)
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline)
        loaded = load_baseline(path)
        assert len(loaded) == 1
        module = SourceModule(
            Path("/virtual/pkg/mod.py"),
            "pkg/mod.py",
            "def save(path, data):\n"
            "    open(path, 'w').write(data)\n",
        )
        config = DevConfig(
            select=frozenset(["RL101"]), baseline=loaded
        )
        rerun = run_devlint([], config=config, modules=[module])
        assert codes(rerun) == []
        assert rerun.baselined == 1
        no_baseline = run_devlint(
            [],
            config=DevConfig(
                select=frozenset(["RL101"]),
                baseline=loaded,
                use_baseline=False,
            ),
            modules=[module],
        )
        assert codes(no_baseline) == ["RL101"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "absent.json")) == 0

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_report_ordering_is_deterministic(self):
        report = run_on(
            "import time\n"
            "def save(path):\n"
            "    open(path, 'w').write(str(time.time()))\n",
            select=["RL1", "RL2"],
        )
        assert codes(report) == sorted(codes(report))


# ---------------------------------------------------------------------------
# Emitters: text / JSON / SARIF, shared vocabulary with repro.lint
# ---------------------------------------------------------------------------
@pytest.fixture
def trigger_report():
    return run_on(
        "def save(path, data):\n"
        "    open(path, 'w').write(data)\n",
        select=["RL101"],
    )


class TestEmitters:
    def test_text_carries_path_line_code(self, trigger_report):
        text = render_text(trigger_report)
        assert "pkg/mod.py:2: RL101 warning:" in text
        assert "1 finding(s)" in text

    def test_json_shape(self, trigger_report):
        payload = json.loads(render_json(trigger_report))
        assert payload["tool"] == DEVLINT_TOOL_NAME
        assert payload["exit_code"] == 1
        assert payload["findings"][0]["code"] == "RL101"
        assert payload["findings"][0]["artifact"] == "pkg/mod.py"
        assert payload["findings"][0]["line"] == 2

    def test_sarif_shape(self, trigger_report):
        document = json.loads(render_sarif(trigger_report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == DEVLINT_TOOL_NAME
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["RL101"]
        result = run["results"][0]
        assert result["ruleId"] == "RL101"
        assert result["level"] == "warning"
        physical = result["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "pkg/mod.py"
        assert physical["region"]["startLine"] == 2
        assert result["ruleIndex"] == 0

    def test_shared_vocabulary_round_trip_through_lint_emitter(
        self, trigger_report
    ):
        """Devlint findings flow through the repro.lint SARIF emitter
        unchanged: same Diagnostic objects, same severity mapping,
        same rule-metadata shape via DevRule.as_lint_rule()."""
        lint_rules = [
            rule.as_lint_rule()
            for rule in rules_for_report(trigger_report)
        ]
        report = LintReport(
            model_name="devlint",
            diagnostics=trigger_report.diagnostics,
            checked_rules=list(trigger_report.checked_rules),
        )
        document = json.loads(
            lint_render_sarif(
                report, artifact="pkg/mod.py", rules=lint_rules
            )
        )
        run = document["runs"][0]
        shipped = {
            r["id"]: r for r in run["tool"]["driver"]["rules"]
        }
        assert "RL101" in shipped
        assert (
            shipped["RL101"]["defaultConfiguration"]["level"]
            == "warning"
        )
        result = run["results"][0]
        assert result["ruleId"] == "RL101"
        assert result["level"] == "warning"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        # Severity mapping is the shared one: INFO would become
        # "note", WARNING/ERROR pass through.
        assert Severity.INFO.sarif_level == "note"

    def test_exit_codes_mirror_lint(self):
        assert run_on("x = 1\n").exit_code == 0
        warning = run_on(
            "def save(p, d):\n    open(p, 'w').write(d)\n",
            select=["RL101"],
        )
        assert warning.exit_code == 1
        assert run_on("def broken(:\n").exit_code == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def _write_trigger(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "bad.py").write_text(
            "def save(path, data):\n"
            "    open(path, 'w').write(data)\n",
            encoding="utf-8",
        )
        return target

    def test_exit_1_and_text_output(self, tmp_path, capsys):
        target = self._write_trigger(tmp_path)
        code = devlint_main(
            [str(target), "--project-root", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RL101 warning" in out

    def test_json_and_sarif_formats(self, tmp_path, capsys):
        target = self._write_trigger(tmp_path)
        assert (
            devlint_main(
                [
                    str(target),
                    "--project-root",
                    str(tmp_path),
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == DEVLINT_TOOL_NAME
        assert (
            devlint_main(
                [
                    str(target),
                    "--project-root",
                    str(tmp_path),
                    "--format",
                    "sarif",
                ]
            )
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"

    def test_write_baseline_then_clean_then_no_baseline(
        self, tmp_path, capsys
    ):
        target = self._write_trigger(tmp_path)
        root = ["--project-root", str(tmp_path)]
        assert (
            devlint_main([str(target), *root, "--write-baseline"])
            == 0
        )
        assert (tmp_path / "devlint-baseline.json").exists()
        capsys.readouterr()
        assert devlint_main([str(target), *root]) == 0
        assert "1 baselined" in capsys.readouterr().out
        assert (
            devlint_main([str(target), *root, "--no-baseline"]) == 1
        )

    def test_select_ignore_and_list_rules(self, tmp_path, capsys):
        target = self._write_trigger(tmp_path)
        root = ["--project-root", str(tmp_path)]
        assert (
            devlint_main(
                [str(target), *root, "--select", "RL2,RL3"]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            devlint_main([str(target), *root, "--ignore", "RL101"])
            == 0
        )
        capsys.readouterr()
        assert devlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL101 raw-artifact-write" in out
        assert "RL403" in out

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        target = self._write_trigger(tmp_path)
        (tmp_path / "devlint-baseline.json").write_text(
            "nonsense", encoding="utf-8"
        )
        assert (
            devlint_main(
                [str(target), "--project-root", str(tmp_path)]
            )
            == 2
        )


# ---------------------------------------------------------------------------
# The real tree, and the acceptance mutations
# ---------------------------------------------------------------------------
class TestRealTree:
    def test_src_repro_is_clean_without_baseline(self):
        config = DevConfig(use_baseline=False, project_root=REPO_ROOT)
        report = run_devlint([SRC_TREE], config=config)
        rendered = "\n".join(
            f"{artifact}: {diagnostic.code} {diagnostic.message}"
            for artifact, diagnostic in report.entries
        )
        assert report.exit_code == 0, rendered

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / "devlint-baseline.json")
        assert len(baseline) == 0

    def test_mutated_codec_raw_open_fails_rl101(self, tmp_path):
        source = (SRC_TREE / "logs" / "codec.py").read_text(
            encoding="utf-8"
        )
        mutated = source.replace(
            'with durable_stream_writer(path, fsync=durable) as handle:\n'
            '        return write_log(log, handle)',
            'with open(path, "w", encoding="utf-8") as handle:\n'
            '        return write_log(log, handle)',
        )
        assert mutated != source
        target = tmp_path / "codec.py"
        target.write_text(mutated, encoding="utf-8")
        config = DevConfig(use_baseline=False)
        report = run_devlint([target], config=config)
        assert "RL101" in codes(report)
        assert report.exit_code == 1

    def test_mutated_serialize_unsorted_set_fails_rl201(
        self, tmp_path
    ):
        source = (SRC_TREE / "model" / "serialize.py").read_text(
            encoding="utf-8"
        )
        mutated = source.replace(
            "for source, target in sorted(model.graph.edges()):",
            "for source, target in set(model.graph.edges()):",
        )
        assert mutated != source
        target = tmp_path / "serialize.py"
        target.write_text(mutated, encoding="utf-8")
        config = DevConfig(use_baseline=False)
        report = run_devlint([target], config=config)
        assert "RL201" in codes(report)
        assert report.exit_code == 1

    def test_suppressions_in_tree_are_all_used(self):
        config = DevConfig(use_baseline=False, project_root=REPO_ROOT)
        report = run_devlint([SRC_TREE], config=config)
        assert report.by_code(CODE_STALE_SUPPRESSION) == []
        assert report.suppressed > 0


class TestFloatReprPolicy:
    def test_model_to_text_round_trips_long_floats(self):
        from repro.model.activity import Activity
        from repro.model.process import ProcessModel
        from repro.model.serialize import (
            model_from_text,
            model_to_text,
        )

        duration = 0.1 + 0.2  # 0.30000000000000004 — ':g' would lose it
        model = ProcessModel(
            "precise",
            activities=[
                Activity("A", duration=duration),
                Activity("B"),
            ],
            edges=[("A", "B")],
            source="A",
            sink="B",
        )
        text = model_to_text(model)
        assert re.search(
            r"activity A .*duration=0\.30000000000000004", text
        )
        parsed = model_from_text(text)
        assert parsed.activity("A").duration == duration

    def test_integral_durations_stay_ints(self):
        from repro.model.builder import ProcessBuilder
        from repro.model.serialize import model_to_text

        model = ProcessBuilder("plain").chain("A", "B").build()
        text = model_to_text(model)
        assert "duration=1\n" in text or "duration=1 " in text
