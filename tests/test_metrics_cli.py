"""CLI tests for ``--metrics-out`` / ``--metrics-format`` on mine/lint."""

import json

import pytest

from repro.cli import main
from repro.obs import parse_jsonl, parse_prometheus

EXAMPLE_LOG = "examples/logs/upload_and_notify.log"
EXAMPLE_MODEL = "examples/models/upload_and_notify.pm"


@pytest.fixture
def mine_manifest(tmp_path, capsys):
    """Run ``mine --metrics-out --profile`` once; return (records, stderr)."""
    out = tmp_path / "run.jsonl"
    code = main(
        [
            "mine", EXAMPLE_LOG,
            "--profile",
            "--metrics-out", str(out),
            "--metrics-format", "jsonl",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    return parse_jsonl(out.read_text()), captured.err


class TestMineMetrics:
    def test_manifest_header_identity(self, mine_manifest):
        records, _ = mine_manifest
        (header,) = records["manifest"]
        assert header["command"] == "mine"
        assert header["input_path"] == EXAMPLE_LOG
        assert header["input_digest"].startswith("sha256:")
        assert header["config"]["resolved_algorithm"] == "general-dag"

    def test_spans_cover_every_stage(self, mine_manifest):
        records, _ = mine_manifest
        names = [record["name"] for record in records["span"]]
        for stage in (
            "ingest",
            "mine",
            "mine/prepare",
            "mine/step2_counters",
            "mine/step3_filters",
            "mine/step4_scc",
            "mine/step5_reduce",
            "mine/step6_assemble",
            "lint",
            "lint/coverage",
        ):
            assert stage in names, f"missing span {stage}"

    def test_counters_present(self, mine_manifest):
        records, _ = mine_manifest
        by_name = {
            record["name"]: record for record in records["metric"]
            if not record.get("labels")
        }
        assert by_name["repro_mine_executions_total"]["value"] == 60
        assert by_name["repro_mine_pairs_extracted_total"]["value"] > 0
        assert "repro_ingest_executions_accepted_total" in by_name

    def test_manifest_stages_match_profile_output(self, mine_manifest):
        """--metrics-out and --profile must tell one coherent story."""
        records, stderr = mine_manifest
        profile_stages = {
            line.strip().split(":")[0]
            for line in stderr.splitlines()
            if line.startswith("  ") and " ms" in line
        }
        profile_stages.discard("executions")
        manifest_stages = {
            record["name"].removeprefix("mine/")
            for record in records["span"]
            if record["name"].startswith("mine/")
        }
        # Verification reports its lint spans under the verify label.
        manifest_stages |= {
            "verify" + record["name"].removeprefix("lint")
            for record in records["span"]
            if record["name"] in ("lint", "lint/coverage")
        }
        assert {"verify", "verify/coverage"} <= profile_stages
        assert profile_stages <= manifest_stages

    def test_prom_output_parses(self, tmp_path, capsys):
        out = tmp_path / "run.prom"
        code = main(
            [
                "mine", EXAMPLE_LOG,
                "--metrics-out", str(out),
                "--metrics-format", "prom",
            ]
        )
        capsys.readouterr()
        assert code == 0
        samples = parse_prometheus(out.read_text())
        assert samples[("repro_mine_executions_total", ())] == 60
        stages = {
            dict(labels)["stage"]
            for name, labels in samples
            if name == "repro_span_seconds"
        }
        assert "mine/step5_reduce" in stages

    def test_text_output_is_human_table(self, tmp_path, capsys):
        out = tmp_path / "run.txt"
        assert main(
            [
                "mine", EXAMPLE_LOG,
                "--metrics-out", str(out),
                "--metrics-format", "text",
            ]
        ) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "run: mine" in text
        assert "mine/step6_assemble" in text

    def test_no_metrics_flag_writes_nothing(self, tmp_path, capsys):
        assert main(["mine", EXAMPLE_LOG]) == 0
        err = capsys.readouterr().err
        assert "metrics:" not in err
        assert list(tmp_path.iterdir()) == []

    def test_digest_matches_input_bytes(self, mine_manifest):
        import hashlib

        records, _ = mine_manifest
        (header,) = records["manifest"]
        digest = hashlib.sha256(
            open(EXAMPLE_LOG, "rb").read()
        ).hexdigest()
        assert header["input_digest"] == f"sha256:{digest}"


class TestLintMetrics:
    def test_lint_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "lint.jsonl"
        code = main(
            [
                "lint", EXAMPLE_MODEL,
                "--metrics-out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        records = parse_jsonl(out.read_text())
        (header,) = records["manifest"]
        assert header["command"] == "lint"
        assert header["input_path"] == EXAMPLE_MODEL
        names = [record["name"] for record in records["span"]]
        assert "load_model" in names
        assert "lint" in names
        severities = {
            record["labels"]["severity"]
            for record in records["metric"]
            if record["name"] == "repro_lint_findings_total"
        }
        assert {"error", "warning", "info"} <= severities

    def test_jsonl_lines_are_valid_json(self, tmp_path, capsys):
        out = tmp_path / "lint.jsonl"
        assert main(
            ["lint", EXAMPLE_MODEL, "--metrics-out", str(out)]
        ) == 0
        capsys.readouterr()
        for line in out.read_text().splitlines():
            json.loads(line)


class TestMetricsOutFailFast:
    """An unwritable ``--metrics-out`` fails *before* any mining work.

    The failure mode this guards: a long mine that completes and only
    then discovers the manifest cannot be written.  The CLI now probes
    the path up front and exits 2 (usage error) immediately.
    """

    def run_mine(self, capsys, metrics_out):
        code = main(
            ["mine", EXAMPLE_LOG, "--metrics-out", str(metrics_out)]
        )
        return code, capsys.readouterr()

    def test_missing_parent_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "run.jsonl"
        code, captured = self.run_mine(capsys, target)
        assert code == 2
        assert "--metrics-out" in captured.err
        assert captured.out == ""

    def test_directory_target_exits_2(self, tmp_path, capsys):
        code, captured = self.run_mine(capsys, tmp_path)
        assert code == 2
        assert "--metrics-out" in captured.err

    def test_parent_is_a_file_exits_2(self, tmp_path, capsys):
        parent = tmp_path / "occupied"
        parent.write_text("not a directory\n")
        code, captured = self.run_mine(capsys, parent / "run.jsonl")
        assert code == 2
        assert "--metrics-out" in captured.err

    def test_unwritable_parent_exits_2(self, tmp_path, capsys):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores directory write bits")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        try:
            code, captured = self.run_mine(
                capsys, locked / "run.jsonl"
            )
        finally:
            locked.chmod(0o755)
        assert code == 2
        assert "--metrics-out" in captured.err

    def test_writable_path_still_mines(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code, captured = self.run_mine(capsys, out)
        assert code == 0
        assert out.exists()

    def test_serve_validates_metrics_out_too(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                str(tmp_path / "data"),
                "--metrics-out",
                str(tmp_path / "missing" / "m.jsonl"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--metrics-out" in captured.err
