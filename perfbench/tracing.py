"""Spans recorded around calls into the program's public functions.

The benchmark wraps the functions named in LAYERS at run time; nothing in
the program records spans. A span holds a layer name, a start, an end and
the index of its parent span. The parent is the innermost open span of the
same thread; a worker thread with no open span takes the innermost open
span of the thread that began the pass, which is the thread waiting on it.
Spans stay in memory until the run ends.

A wrapped name that cannot be found is reported as absent and the run goes
on, so renaming an entry point loses its layer rather than the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

# (layer, module, attribute path). Functions are rebound wherever a loaded
# hopqg module holds them, at module level or as a value of a module-level
# dict (the evaluate module keeps its metric functions in such tables).
LAYERS = (
    ("context.parse", "hopqg.context", "AnnotatedContext.from_json"),
    ("graph.build", "hopqg.graph", "build_context_graph"),
    ("planner.plan", "hopqg.planner", "plan_chain"),
    ("pipeline.stepwise", "hopqg.pipeline", "generate_stepwise"),
    ("template.call", "hopqg.template", "TemplateBackend.initial"),
    ("template.call", "hopqg.template", "TemplateBackend.rewrite"),
    ("remote.call", "hopqg.remote", "RemoteGeneratorBackend.initial"),
    ("remote.call", "hopqg.remote", "RemoteGeneratorBackend.rewrite"),
    ("hotpot.load", "hopqg.hotpot", "load_hotpot"),
    ("hotpot.context", "hopqg.hotpot", "record_context"),
    ("dataset_builder.build", "hopqg.dataset_builder", "build_dataset"),
    ("dataset_builder.record", "hopqg.dataset_builder", "process_record"),
    ("metrics.bleu", "hopqg.metrics", "bleu_n"),
    ("metrics.rouge_l", "hopqg.metrics", "rouge_l"),
    ("metrics.meteor", "hopqg.metrics", "meteor_simplified"),
    ("metrics.cider", "hopqg.metrics", "cider"),
    ("io.write", "hopqg.evaluate", "write_jsonl"),
    # The report and stats writes of the CLI; a private helper, so its
    # absence after a refactor is expected and harmless.
    ("io.write", "hopqg.cli", "_write_text"),
    ("manifest.digest", "hopqg.manifest", "sha256_file"),
    ("manifest.write", "hopqg.manifest", "RunManifest.write"),
)

# Members of the BackendSuite passed to build_dataset, wrapped per instance
# (each CLI call builds its own suite).
SUITE_MEMBERS = (
    ("dataset_builder.classify", "classifier", "classify"),
    ("dataset_builder.decompose", "decomposer", "decompose"),
    ("dataset_builder.qa", "qa", "answer"),
)


class Tracer:
    """Spans kept column by column: one entry per span in each of name,
    start, end, parent and failed. Flat number arrays keep the garbage
    collector from walking a growing heap of span objects, which would
    slow the traced passes more than the spans themselves do."""

    def __init__(self):
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # -1: no parent
        self.failed = bytearray()
        self.counts = {"records": 0, "examples": 0}
        self._local = threading.local()
        self._root_stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else -1)
        index = len(self.name)
        self.name.append(name)
        self.parent.append(parent)
        self.failed.append(0)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def truncate(self, length: int) -> None:
        for column in (self.name, self.start, self.end, self.parent, self.failed):
            del column[length:]

    def begin_pass(self) -> int:
        """Open the root span of one pass on the calling thread."""
        self._root_stack = self._stack()
        return self.open("pass")

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[index] = 1
                raise
            finally:
                tracer.close(index)

        return traced


def _rebind(original, replacement) -> None:
    """Replace every reference to original held by a loaded hopqg module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "hopqg" or mod_name.startswith("hopqg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _suite_wrapper(tracer: Tracer, build):
    """build_dataset wrapped so that its suite's members are traced too."""
    traced_build = tracer.wrap("dataset_builder.build", build)

    @functools.wraps(build)
    def wrapper(records, backends, *args, **kwargs):
        for layer, member, method in SUITE_MEMBERS:
            target = getattr(backends, member, None)
            fn = getattr(target, method, None)
            if fn is not None:
                setattr(target, method, tracer.wrap(layer, fn))
        examples, stats = traced_build(records, backends, *args, **kwargs)
        tracer.counts["records"] += len(records)
        tracer.counts["examples"] += len(examples)
        return examples, stats

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer; returns the names that could not be found."""
    absent = []
    for layer, mod_name, path in LAYERS:
        try:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError):
            raw = None
        if raw is None:
            absent.append(f"{mod_name}.{path}")
            continue
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(layer, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(layer, raw))
            continue
        if layer == "dataset_builder.build":
            _rebind(raw, _suite_wrapper(tracer, raw))
        else:
            _rebind(raw, tracer.wrap(layer, raw))
    return absent


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(tracer.parent):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    start, end = tracer.start, tracer.end
    out = []
    for index in range(len(tracer)):
        covered, cursor = 0.0, start[index]
        for child in sorted(children.get(index, []), key=start.__getitem__):
            lo = max(start[child], cursor)
            hi = min(end[child], end[index])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end[index] - start[index] - covered)
    return out
