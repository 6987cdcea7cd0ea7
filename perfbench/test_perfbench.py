"""Self-tests for the benchmark's own logic.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from inputs import (  # noqa: E402
    batches, check_cli_output, check_flush, finalized_through, make_log)
from loadgen import Exchange  # noqa: E402
from spans import (  # noqa: E402
    TRACE_POINTS, covered_length, self_times, summarize)
from stats import TooFewSamples, percentile, tail  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentiles
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert tail(values, 0.99) == 990.0  # 10 samples lie beyond
    with pytest.raises(TooFewSamples):
        tail(values[:999], 0.99)  # only 9 would
    assert tail(values[:200], 0.95) == 190.0
    with pytest.raises(TooFewSamples):
        tail(values[:199], 0.95)


def test_failed_requests_count_as_infinite():
    values = [1.0] * 95 + [math.inf] * 5
    assert percentile(values, 0.95) == 1.0
    assert percentile(values, 0.96) == math.inf


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(ident, point, start, end, parent=-1, thread=1, work=0):
    return [ident, point, start, end, parent, thread, work]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(2, 3), (2, 3)], 0, 10) == 1
    assert covered_length([], 0, 10) == 0


def test_self_time_with_overlapping_children():
    spans = [
        _span(0, 0, 0.0, 10.0),
        _span(1, 2, 1.0, 4.0, parent=0),
        _span(2, 2, 3.0, 6.0, parent=0),  # overlaps its sibling
        _span(3, 2, 8.0, 10.0, parent=0),
        _span(4, 4, 3.5, 4.0, parent=2),  # grandchild: not the root's
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(
        10.0 + 3.0 + 3.0 + 2.0 + 0.5 - 7.0 - 0.5)


def test_summarize_attributes_self_time_to_layers():
    points = [list(point) for point in TRACE_POINTS]
    label = {point[3]: index for index, point in enumerate(points)}
    spans = [
        _span(0, label["ingest_file"], 0.0, 4.0),
        _span(1, label["push_batch"], 1.0, 3.0, parent=0, work=100),
        _span(2, label["lint_model"], 4.0, 6.0),
        _span(3, label["edge_coverage"], 4.5, 5.5, parent=2),
    ]
    metrics = summarize({"points": points, "spans": spans}, 8.0, 100)
    assert metrics["logs.decode.self_s"] == pytest.approx(4.0)
    assert metrics["logs.decode.records"] == 100
    assert metrics["lint.verify.self_s"] == pytest.approx(1.0)
    assert metrics["analysis.coverage.self_s"] == pytest.approx(1.0)
    assert metrics["logs.share"] == pytest.approx(0.5)
    assert metrics["analysis.share"] == pytest.approx(0.125)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "small.jsonl"
    return make_log(path, vertices=12, pool=40, repeats=3, seed=7)


def _edges_text(log, edges):
    body = "\n".join(f"{a} -> {b}" for a, b in sorted(edges))
    return (f"# algorithm: general-dag\n# activities: {log.activities}\n"
            f"# edges: {len(edges)}\n{body}\n")


def test_reference_check_accepts_the_real_cli(small_log, tmp_path):
    run = bench.Run("dup", seed=7, seconds=1.0, trace=False)
    run.work = tmp_path
    sample = run.cli_once(["mine", str(small_log.path), "--stream",
                           "--format", "edges"], small_log, traced=False)
    assert sample["ok"], run.problems
    assert run.failed == 0
    assert check_cli_output(
        (tmp_path / "stdout.txt").read_text(), small_log) == []


def test_traced_cli_run_attributes_every_record(small_log, tmp_path):
    run = bench.Run("dup", seed=7, seconds=1.0, trace=True)
    run.work = tmp_path
    sample = run.cli_once(["mine", str(small_log.path), "--stream",
                           "--format", "edges"], small_log, traced=True)
    assert sample["ok"], run.problems
    layers = sample["layers"]
    assert layers["logs.decode.records"] == small_log.records
    assert layers["core.fold.executions"] == small_log.executions
    assert layers["core.mine.calls"] == 1
    assert layers["core.mine.variants"] == small_log.variants
    assert layers["lint.verify.self_s"] > 0
    assert 0 < sum(layers[name] for name in layers
                   if name.endswith(".share")) <= 1


def test_cli_peak_rss_is_the_childs_own(small_log, tmp_path):
    """A large benchmark process must not show in the CLI's peak RSS."""
    run = bench.Run("dup", seed=7, seconds=1.0, trace=False)
    run.work = tmp_path
    ballast = bytearray(200 * 1024 * 1024)  # touched: resident
    sample = run.cli_once(["mine", str(small_log.path), "--stream",
                           "--format", "edges"], small_log, traced=False)
    del ballast
    assert sample["ok"], run.problems
    assert 0 < sample["rss_mib"] < 150


def test_nonzero_cli_exit_fails_the_run(small_log, tmp_path):
    """``mine`` prints a correct model, then exits 3: not a pass."""
    noisy = tmp_path / "noisy.jsonl"
    noisy.write_text(small_log.path.read_text() + "not a record\n")
    run = bench.Run("distinct", seed=7, seconds=1.0, trace=False)
    run.work = tmp_path
    sample = run.cli_once(["mine", str(noisy), "--on-error", "skip",
                           "--format", "edges"], small_log, traced=False)
    assert check_cli_output(
        (tmp_path / "stdout.txt").read_text(), small_log) == []
    assert not sample["ok"]
    assert run.failed == 1
    assert any("exit status 3" in p for p in run.problems), run.problems


def test_reference_check_rejects_a_perturbed_model(small_log):
    edges = sorted(small_log.edges)
    assert check_cli_output(_edges_text(small_log, edges), small_log) == []
    assert check_cli_output(_edges_text(small_log, edges[1:]), small_log)
    flipped = [(b, a) for a, b in edges[:1]] + edges[1:]
    assert check_cli_output(_edges_text(small_log, flipped), small_log)


def test_flush_check_catches_quarantine_and_short_counts():
    good = {"executions": 5, "quarantined_lines": 0, "errors": []}
    assert check_flush(good, 5) == []
    assert check_flush(dict(good, executions=4), 5)
    assert check_flush(dict(good, quarantined_lines=3), 5)
    assert check_flush(dict(good, errors=[{"kind": "format"}]), 5)


def test_mismatched_tenant_url_fails_the_run(tmp_path):
    """Every POST answers 202 and every line is quarantined: not a pass."""
    spec = bench.ServeSpec(vertices=10, pool=10, repeats=100, rate=1500.0,
                           lines_per_post=25, read_hz=20.0)
    run = bench.Run("dup", seed=3, seconds=4.0, trace=False)
    run.work = tmp_path
    run.serve_phase(spec, tenant="not-the-logged-process")
    assert any("quarantined" in p for p in run.problems), run.problems
    assert run.failed > 0
    assert "serve_cpu_us_per_record" in run.metrics  # it did run, fast


# ----------------------------------------------------------------------
# Visibility
# ----------------------------------------------------------------------
def test_finalized_through_matches_a_daemon_tenant(small_log, tmp_path):
    from repro.service.registry import Tenant, TenantConfig

    lines = [line.rstrip("\n") for line in
             small_log.path.read_text().splitlines()]
    bodies = batches(lines, 17)
    window = 40
    finalized = finalized_through(small_log.process, bodies, window=window)
    tenant = Tenant(small_log.process, tmp_path / "tenant",
                    TenantConfig(window=window))
    tenant.recover()
    folded = 0
    for body, expected in zip(bodies, finalized):
        folded += tenant.ingest(list(body))
        assert folded == expected
    assert 0 < finalized[-1] < small_log.executions
    assert finalized[-1] + tenant.flush() == small_log.executions
    tenant.close()


def _exchange(kind, index, sent, done, status=200, seq=None):
    exchange = Exchange(kind, index, due=sent, sent=sent, done=done,
                        status=status, seq=seq)
    return exchange


def test_visibility_waits_for_a_covering_read_sent_after_the_ack():
    posts = [
        _exchange("post", 0, 0.0, 0.1, status=202),
        _exchange("post", 1, 1.0, 1.1, status=202),
        _exchange("post", 2, 2.0, 2.1, status=202),
        _exchange("post", 3, 3.0, 3.1, status=202),
        _exchange("post", 4, 4.0, 4.1, status=500),
    ]
    reads = [
        _exchange("read", 0, 1.05, 1.2, seq=5),  # sent before post 1's ack
        _exchange("read", 1, 1.5, 1.6, seq=3),
        _exchange("read", 2, 2.5, 2.7, seq=5),
        _exchange("read", 3, 3.5, 3.6, seq=5),
    ]
    finalized = [0, 5, 5, 9, 9]
    visible, censored = bench.visibility(posts, reads, finalized)
    # post 0 finalized nothing; post 1 waits for read 2 (read 0 was sent
    # before its ack, read 1 is stale); post 2 is covered by read 2;
    # post 3 is never covered; post 4 failed.
    assert visible == pytest.approx([2.7 - 1.1, 2.7 - 2.1, math.inf])
    assert censored == 1


# ----------------------------------------------------------------------
# The declared benchmark matches what the code reports
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == bench.PER_LAYER
