"""The :class:`RunManifest`: everything needed to compare two runs.

A manifest pins down *what* ran (command and config), *on what* (input
path and content digest), *where* (Python/platform, best-effort git
SHA), and *what happened* (the recorder's spans and metric snapshot).
Two manifests with equal digests, configs and environments are
comparable run-to-run — the property the CI regression gate and
``benchmarks/perf_harness.py`` build on.

Everything here is dependency-free: the git SHA is resolved by reading
``.git/HEAD`` (and ``packed-refs``) directly, never by shelling out.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional, Union

from repro.obs.recorder import ObsRecorder, Span

PathOrStr = Union[str, Path]

#: Manifest schema version (bump on breaking field changes).
MANIFEST_VERSION = 1


def input_digest(path: PathOrStr) -> str:
    """``sha256:`` digest of a file's bytes (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def git_sha(start: Optional[PathOrStr] = None) -> Optional[str]:
    """Best-effort commit SHA of the repository containing ``start``.

    Walks up from ``start`` (default: the working directory) to the
    first ``.git`` directory, then resolves ``HEAD`` through loose refs
    and ``packed-refs``.  Returns ``None`` outside a repository or on
    any read problem — a manifest must never fail because git state is
    odd.
    """
    try:
        here = Path(start if start is not None else os.getcwd()).resolve()
        for candidate in (here, *here.parents):
            git_dir = candidate / ".git"
            if not git_dir.is_dir():
                continue
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.partition(":")[2].strip()
            loose = git_dir / ref
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip() or None
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text(
                    encoding="utf-8"
                ).splitlines():
                    if line.startswith("#") or line.startswith("^"):
                        continue
                    sha, _, name = line.partition(" ")
                    if name.strip() == ref:
                        return sha.strip() or None
            return None
    except OSError:
        return None
    return None


def environment_info() -> dict:
    """The environment fields every manifest carries."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


@dataclass
class RunManifest:
    """One run's identity plus its observed spans and metrics."""

    command: str
    config: Mapping[str, object] = field(default_factory=dict)
    input_path: Optional[str] = None
    input_digest: Optional[str] = None
    git_sha: Optional[str] = None
    environment: Mapping[str, object] = field(
        default_factory=environment_info
    )
    spans: List[Span] = field(default_factory=list)
    metrics: List[dict] = field(default_factory=list)
    version: int = MANIFEST_VERSION

    @classmethod
    def collect(
        cls,
        recorder: ObsRecorder,
        command: str,
        input_path: Optional[PathOrStr] = None,
        config: Optional[Mapping[str, object]] = None,
    ) -> "RunManifest":
        """Snapshot ``recorder`` into a manifest for ``command``.

        The input digest is computed when ``input_path`` names a
        readable file; a vanished input degrades to ``None`` rather
        than failing the run that already finished.
        """
        digest: Optional[str] = None
        if input_path is not None:
            try:
                digest = input_digest(input_path)
            except OSError:
                digest = None
        return cls(
            command=command,
            config=dict(config or {}),
            input_path=str(input_path) if input_path is not None else None,
            input_digest=digest,
            git_sha=git_sha(),
            spans=list(recorder.spans),
            metrics=recorder.registry.snapshot(),
        )

    def stage_names(self) -> List[str]:
        """Span names in start order (the pipeline's stage skeleton)."""
        return [span.name for span in self.spans]

    def header_dict(self) -> dict:
        """The identity fields (everything except spans and metrics)."""
        return {
            "version": self.version,
            "command": self.command,
            "config": dict(self.config),
            "input_path": self.input_path,
            "input_digest": self.input_digest,
            "git_sha": self.git_sha,
            "environment": dict(self.environment),
        }

    def to_dict(self) -> dict:
        """The complete JSON-ready manifest."""
        payload = self.header_dict()
        payload["spans"] = [span.to_dict() for span in self.spans]
        payload["metrics"] = list(self.metrics)
        return payload
