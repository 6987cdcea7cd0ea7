"""Cold start: each entry point imports only the code it runs.

Package ``__init__``s re-export lazily (:mod:`repro._lazy`), and
``repro.cli`` imports subcommand-only code inside its handlers.  These
subprocess probes pin that down, so an eager import that creeps back in
fails here instead of showing up as set-up time in the benchmark:

* neither ``import repro.cli`` nor a ``serve`` boot loads the
  classifier, the workflow engine, the dataset generators, model
  evolution, model-vs-log diffing or recovery runs;
* ``mine LOG.jsonl`` (batch and ``--stream``) imports at most the
  renderer modules and the fused fold inside ``main``: whatever else
  it runs is already loaded by ``import repro.cli``, so none of its
  cost hides in the timed region;
* every package re-export still resolves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.logs.execution import Execution
from repro.logs.jsonl import record_to_json

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules neither ``mine`` nor ``serve`` runs.
UNUSED_BY_MINE_AND_SERVE = (
    "repro.classifier",
    "repro.engine",
    "repro.datasets",
    "repro.model.evolution",
    "repro.analysis.diffing",
    "repro.analysis.recovery",
)

#: What ``main`` may import for ``mine LOG.jsonl --format edges``.
MAIN_MAY_IMPORT = {
    False: {"repro.service", "repro.service.wire"},
    True: {"repro.logs.fastfold", "repro.service", "repro.service.wire"},
}


def run_probe(code, *args):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    decoded as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


IMPORT_PROBE = """
import json, sys
import repro.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

SERVE_PROBE = """
import json, os, signal, sys, threading, time
import repro.cli

data_dir, port_file = sys.argv[1:3]

def stop_when_listening():
    while not (os.path.exists(port_file)
               and open(port_file).read().strip()):
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGTERM)

threading.Thread(target=stop_when_listening, daemon=True).start()
status = repro.cli.main(
    ["serve", data_dir, "--port", "0", "--port-file", port_file])
assert status == 0, status
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

MAIN_PROBE = """
import contextlib, io, json, sys
import repro.cli

before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(sys.argv[1:])
assert status == 0, status
print(json.dumps(sorted(
    m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


def _unused_loaded(modules):
    return sorted(
        name
        for name in modules
        for unused in UNUSED_BY_MINE_AND_SERVE
        if name == unused or name.startswith(unused + ".")
    )


def test_cli_import_leaves_unused_packages_unloaded():
    assert _unused_loaded(run_probe(IMPORT_PROBE)) == []


def test_serve_boot_leaves_unused_packages_unloaded(tmp_path):
    modules = run_probe(
        SERVE_PROBE, tmp_path / "data", tmp_path / "port"
    )
    assert "repro.service.server" in modules
    assert _unused_loaded(modules) == []


@pytest.mark.parametrize("stream", [False, True])
def test_mine_imports_nothing_new_inside_main(tmp_path, stream):
    log = tmp_path / "log.jsonl"
    lines = [
        record_to_json(record, "claims")
        for index, sequence in enumerate(["ABCE", "ACBE", "ABDE", "ADE"])
        for record in Execution.from_sequence(
            list(sequence), f"e{index}", start_time=float(index)
        ).records
    ]
    log.write_text("\n".join(lines) + "\n")
    argv = ["mine", log, "--format", "edges"]
    if stream:
        argv.append("--stream")
    imported = set(run_probe(MAIN_PROBE, *argv))
    assert imported <= MAIN_MAY_IMPORT[stream]


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize(
    "package", list(_packages()), ids=lambda package: package.__name__
)
def test_every_reexport_resolves(package):
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError):
        package.NoSuchName  # noqa: B018


def test_reexports_are_the_defining_objects():
    from repro import EventLog, ProcessMiner
    from repro.core.miner import ProcessMiner as defined

    assert ProcessMiner is defined
    assert EventLog.__module__ == "repro.logs.event_log"
