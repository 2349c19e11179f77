"""Run manifests: what ran, over which bytes, producing which bytes.

Every command writes one, with the digests of the bytes it decoded and
wrote. Timings are informational; reproducibility is judged on the output
digests, which must match across reruns with the same config, inputs and
seed when all backends are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager

from .errors import decode_text, write_text


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


class RunManifest:
    """A run's record. Stages are recorded from any thread: ``timed`` adds a
    block's wall time, whether or not it raises, and ``count`` adds to a
    stage's count; a stage only counted keeps 0.0 s."""

    def __init__(self, command: str, version: str, config: dict, arguments: dict | None = None) -> None:
        self.command = command
        self.version = version
        self.config = config
        self.arguments = {} if arguments is None else arguments
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.stages: dict[str, dict] = {}
        self._lock = threading.Lock()

    def add_input(self, path: str) -> None:
        self.inputs[path] = sha256_file(path)

    def read(self, path: str) -> str:
        """The text of input file path, read once and digested into inputs."""
        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return decode_text(path, data)

    def _stage(self, name: str) -> dict:
        return self.stages.setdefault(name, {"count": 0, "seconds": 0.0})

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._stage(name)["count"] += n

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._stage(name)["seconds"] += elapsed

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "arguments": self.arguments,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "stages": {
                name: {"count": stage["count"], "seconds": round(stage["seconds"], 6)}
                for name, stage in self.stages.items()
            },
        }

    def write(self, path: str) -> None:
        write_text(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
