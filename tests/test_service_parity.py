"""Property: the service's interleaved multi-tenant ingest mines the
same model as per-tenant batch mining.

The daemon accepts event batches from many processes in arbitrary
interleavings, chunked at arbitrary request boundaries, with the
records of one tenant's executions themselves interleaved.  The claim
under test is that none of that scheduling is observable: after a
flush, every tenant's state envelope is byte-identical to what ``mine
--stream --state-out`` produces for that tenant's records alone — the
merge-associativity of :class:`~repro.core.state.MiningState` carried
through the wire codec, the ingest stream and the durable session.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.state import fold_executions, state_envelope
from repro.logs.codec import write_log_file
from repro.logs.event_log import EventLog
from repro.logs.execution import Execution
from repro.logs.jsonl import record_to_json
from repro.service.registry import TenantConfig, TenantRegistry


@st.composite
def tenant_streams(draw):
    """2-3 tenants, each with a small random log, plus a chunk size."""
    n_tenants = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=9999))
    rng = random.Random(seed)
    streams = {}
    for index in range(n_tenants):
        alphabet = [
            f"T{i}"
            for i in range(draw(st.integers(min_value=1, max_value=5)))
        ]
        executions = []
        for number in range(draw(st.integers(min_value=1, max_value=6))):
            length = rng.randint(1, 6)
            executions.append(
                Execution.from_sequence(
                    [rng.choice(alphabet) for _ in range(length)],
                    execution_id=f"e{number:03d}",
                    start_time=float(number),
                )
            )
        streams[f"proc-{index}"] = executions
    chunk_size = draw(st.integers(min_value=1, max_value=7))
    return streams, chunk_size


def interleaved_lines(process, executions):
    """The tenant's wire lines, records round-robined across executions."""
    queues = [list(execution.records) for execution in executions]
    lines = []
    while any(queues):
        for queue in queues:
            if queue:
                lines.append(record_to_json(queue.pop(0), process))
    return lines


def chunked(lines, size):
    return [lines[i : i + size] for i in range(0, len(lines), size)]


class TestInterleavedServiceParity:
    @given(tenant_streams())
    @settings(max_examples=25, deadline=None)
    def test_flushed_state_matches_stream_cli(self, case):
        streams, chunk_size = case
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            registry = TenantRegistry(root / "data", TenantConfig())
            pending = {
                process: chunked(
                    interleaved_lines(process, executions), chunk_size
                )
                for process, executions in streams.items()
            }
            # Round-robin request batches across tenants until drained.
            while any(pending.values()):
                for process in sorted(pending):
                    if pending[process]:
                        tenant, _ = registry.get_or_create(process)
                        tenant.ingest(pending[process].pop(0))
            for process, executions in sorted(streams.items()):
                tenant = registry.get(process)
                tenant.flush()
                snapshot = tenant.state_snapshot()
                log_path = root / f"{process}.tsv"
                write_log_file(
                    EventLog(executions, process_name=process), log_path
                )
                state_out = root / f"{process}.state.json"
                assert (
                    main(
                        [
                            "mine",
                            str(log_path),
                            "--stream",
                            "--no-verify",
                            "--state-out",
                            str(state_out),
                        ]
                    )
                    == 0
                )
                assert (
                    snapshot.envelope == state_out.read_text()
                ), process
            registry.close_all()

    @given(tenant_streams())
    @settings(max_examples=25, deadline=None)
    def test_chunked_folds_merge_to_the_monolithic_state(self, case):
        """The library-level half: merge is associative over chunks."""
        streams, chunk_size = case
        for executions in streams.values():
            monolith = fold_executions(executions, labelled=True)
            merged = None
            for start in range(0, len(executions), chunk_size):
                part = fold_executions(
                    executions[start : start + chunk_size], labelled=True
                )
                merged = part if merged is None else merged.merge(part)
            assert merged is not None
            assert state_envelope(merged) == state_envelope(monolith)
