"""Run manifests: what ran, over which bytes, producing which bytes.

Every command writes one. Timings are informational; reproducibility is
judged on the output digests, which must match across reruns with the
same config, inputs and seed when all backends are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    version: str
    config: dict
    arguments: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    stages: dict[str, dict] = field(default_factory=dict)

    def add_input(self, path: str) -> None:
        self.inputs[path] = sha256_file(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = sha256_file(path)

    def stage(self, name: str, count: int, seconds: float) -> None:
        self.stages[name] = {"count": count, "seconds": round(seconds, 6)}

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "arguments": self.arguments,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "stages": self.stages,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class StageTimer:
    """Context manager collecting a stage's wall time into a manifest."""

    def __init__(self, manifest: RunManifest, name: str):
        self.manifest = manifest
        self.name = name
        self.count = 0
        self._start = 0.0

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.manifest.stage(self.name, self.count, time.perf_counter() - self._start)


class StageClock:
    """Per-stage totals summed over many timed calls, from any thread.

    A stage's count is its calls that returned; its seconds cover every
    call, including those that raised.
    """

    def __init__(self, *names: str):
        self._lock = threading.Lock()
        self.totals = {name: [0, 0.0] for name in names}

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        returned = False
        try:
            yield
            returned = True
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.totals[name][0] += returned
                self.totals[name][1] += elapsed

    def record(self, manifest: RunManifest) -> None:
        for name, (count, seconds) in self.totals.items():
            manifest.stage(name, count, seconds)
