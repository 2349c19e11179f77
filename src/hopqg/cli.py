"""Command-line surface binding the pipeline stages together.

Exit codes: 0 success, 1 partial (some items failed and were counted),
2 invalid input or config. ``main`` runs every command as read, work and
write: it applies the command's flags to the config, builds the services
of its roles, checks that each output path its subparser names in
``outputs`` (and the manifest's) can be written, reads the inputs with the
command's read step, hands them to its work step, writes the outputs work
returns, and closes the services. Read, work and write run with the cyclic
garbage collector paused, and all they read and made is freed before it
resumes. It writes the RunManifest of every completed command: the config
the run used, the digests of the bytes it read from the input files its
subparser names in ``inputs`` and wrote to its outputs (each file crosses
the disk once), and the stages recorded, ``read`` and ``write`` among them.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import importlib
import json
import os
import sys
import threading
from typing import Any, Callable

from . import __version__
from .config import ENDPOINT_ENV, PipelineConfig, load_config
from .errors import (
    AnnotationError, ConfigError, Failure, HopqgError, MetricError, encode_text, invalid_json, jsonl_text, map_jobs,
    read_records, stderr_line, warn, write_bytes,
)
from .manifest import RunManifest

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2

DEFAULT_METRICS = "bleu3,bleu4,rouge-l,meteor-s,cider"


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _with_flags(config: PipelineConfig, **flags) -> PipelineConfig:
    """config with each flag given on the command line in place of its field,
    checked as the values of a config file are."""
    config = config._replace(**{name: value for name, value in flags.items() if value is not None})
    config.validate()
    return config


# Each service role: the module and class of its local stand-in, its class
# in hopqg.remote, and the config fields that class takes besides timeout
# and retries. A remote service posts to endpoints.<role>.
_SERVICES = {
    "generator": ("template", "TemplateBackend", "RemoteGeneratorBackend", ("top_p", "max_tokens")),
    "classifier": ("dataset_builder", "RuleTypeClassifier", "RemoteTypeClassifier", ()),
    "decomposer": ("dataset_builder", "RuleDecomposer", "RemoteDecomposer", ()),
    "qa": ("dataset_builder", "RuleQa", "RemoteQa", ()),
}


def _service_class(module: str, name: str) -> type:
    """Class name of hopqg.<module>, loading that module on first use: only
    remote runs load the HTTP client, only rule runs the dataset builder."""
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _services(roles: tuple[str, ...], backend: str | None, config: PipelineConfig) -> dict[str, object]:
    """The service of each role: its local stand-in, or its remote client
    when backend is 'remote'. Every endpoint is checked before any client is
    made, so a missing one fails before any input is read."""
    if backend != "remote":
        return {role: _service_class(*_SERVICES[role][:2])() for role in roles}
    missing = [role for role in roles if not getattr(config.endpoints, role)]
    if missing:
        raise ConfigError("backend 'remote' needs " + ", ".join(
            f"endpoints.{role} (or {ENDPOINT_ENV[role]})" for role in missing
        ))
    services = {}
    for role in roles:
        _, _, name, options = _SERVICES[role]
        services[role] = _service_class("remote", name)(
            getattr(config.endpoints, role),
            timeout=config.timeout,
            retries=config.retries,
            **{option: getattr(config, option) for option in options},
        )
    return services


def _manifest_path(args: argparse.Namespace) -> str:
    if args.manifest is not None:
        return args.manifest
    out = getattr(args, "out", None)
    if out is not None:
        return out + ".manifest.json"
    first_input = getattr(args, args.inputs[0])
    return os.path.join(os.path.dirname(first_input), f"hopqg-{args.command}-manifest.json")


def _check_writable(paths: dict[str, str | None]) -> None:
    """Raise, naming the option for an empty path, the path for a directory
    or a path whose directory does not exist, and both options for two that
    name one file, so that a run stops before it reads or writes anything.
    paths maps each option to its path; None is an output not asked for."""
    option_of = {}  # each real path checked, and the option that named it
    for option, path in paths.items():
        if path is None:
            continue
        if not path:
            raise ConfigError(f"{option} names no file: the path is empty")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, "no directory to write to", path)
        first = option_of.setdefault(os.path.realpath(path), option)
        if first != option:
            raise ConfigError(f"{first} and {option} name one file: {path}")


def _load_context_docs(path: str, text: str) -> list[AnnotatedContext]:
    from .context import AnnotatedContext

    return read_records(path, text, "context", AnnotatedContext.from_json)


# A command checks its flags and imports the modules it runs, and returns
# two steps: read decodes and checks the text of each file in ``inputs``,
# and work takes what read returned and gives the exit code and the
# outputs, each path with its content; what goes to stdout, work prints.
# main times reading the files and read, and the writes, as the stages
# "read" and "write". Under --manifest-only it runs neither step.
Steps = tuple[Callable[..., Any], Callable[[Any], tuple[int, dict[str, list | dict]]]]


def cmd_build_graph(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest) -> Steps:
    from .graph import build_context_graph

    def read(text: str) -> AnnotatedContext:
        contexts = _load_context_docs(args.context, text)
        if len(contexts) != 1:
            raise AnnotationError("build-graph expects exactly one annotated context")
        return contexts[0]

    def work(context: AnnotatedContext):
        with manifest.timed("build"):
            graph = build_context_graph(context)
        manifest.count("build")
        return EXIT_OK, {args.out: graph.to_json()}

    return read, work


class _SharedGraph:
    """One context's graph, shared by its seed jobs: the first job to run
    builds it and the last to finish drops it, so only contexts with jobs
    pending hold a graph."""

    def __init__(self, ctx: AnnotatedContext, jobs: int):
        self.ctx = ctx
        self.pending = jobs
        self.lock = threading.Lock()
        self.graph: ContextGraph | None = None

    def get(self, manifest: RunManifest) -> ContextGraph:
        with self.lock:
            if self.graph is None:
                from .graph import build_context_graph

                with manifest.timed("build"):
                    self.graph = build_context_graph(self.ctx)
                manifest.count("build")
            return self.graph

    def release(self) -> None:
        with self.lock:
            self.pending -= 1
            if not self.pending:
                self.graph = None


def cmd_generate(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest, generator) -> Steps:
    from .pipeline import generate_stepwise
    from .planner import plan_chain
    from .template import key_overrides

    for flag, value in (("--d", args.d), ("--count", args.count)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")

    def work(contexts: list[AnnotatedContext]):
        overrides = key_overrides(config.category_overrides)
        shared = [_SharedGraph(ctx, args.count) for ctx in contexts]
        jobs = [(index, args.seed + k) for index in range(len(contexts)) for k in range(args.count)]
        # Written even when no call returns: each stage counts the calls that
        # returned and times all of them.
        for stage in ("build", "plan", "generate"):
            manifest.count(stage, 0)

        def run(job):
            index, seed = job
            share = shared[index]
            try:
                graph = share.get(manifest)
                with manifest.timed("plan"):
                    chain = plan_chain(graph, args.d, seed=seed, answer_text=args.answer)
                manifest.count("plan")
                with manifest.timed("generate"):
                    trace = generate_stepwise(graph, chain, generator, overrides)
                manifest.count("generate")
                return trace
            except HopqgError as exc:
                return Failure(str(exc))
            finally:
                share.release()

        traces = []
        for (index, seed), result in zip(jobs, map_jobs(run, jobs, config.concurrency)):
            if type(result) is Failure:
                warn("hopqg.cli", f"context {index} seed {seed} failed: {result.message}")
            else:
                traces.append(result)
        manifest.count("initial", len(traces))
        manifest.count("rewrite", sum(len(t.questions) - 1 for t in traces))
        failed = len(jobs) - len(traces)
        manifest.count("failed", failed)
        return EXIT_PARTIAL if failed else EXIT_OK, {args.out: [t.to_json() for t in traces]}

    return lambda text: _load_context_docs(args.context, text), work


def cmd_build_dataset(
    args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest, classifier, decomposer, qa
) -> Steps:
    from .dataset_builder import BackendSuite, build_dataset
    from .hotpot import load_hotpot

    def work(records: list[HotpotRecord]):
        backends = BackendSuite(classifier, decomposer, qa)
        with manifest.timed("build"):
            examples, stats = build_dataset(records, backends, concurrency=config.concurrency)
        manifest.count("build", len(examples))
        manifest.count("skipped", sum(stats["skips"].values()))
        manifest.count("errors", stats["errors"])
        outputs = {args.out: [ex.to_json() for ex in examples]}
        if args.stats:
            outputs[args.stats] = stats
        return EXIT_PARTIAL if stats["errors"] else EXIT_OK, outputs

    return lambda text: load_hotpot(args.hotpot, text), work


def _read_lines(text: str) -> list[str]:
    """Every line of text, without its newline, up to the last non-blank one."""
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def _parse_ref(path: str, n: int, line: str) -> list[str] | None:
    """The references on line n of path; None for a blank line."""
    if not line.strip():
        return None
    if not line.lstrip().startswith("["):
        return [line]
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MetricError(invalid_json(path, exc, n)) from exc
    if not parsed or not all(isinstance(r, str) for r in parsed):
        raise MetricError(f"{path}:{n}: reference lines must be strings or non-empty JSON string arrays")
    return parsed


def _read_corpus(hyp_path: str, hyp_text: str, ref_path: str, ref_text: str) -> list[tuple[str, list[str]]]:
    """Hypotheses and references, from each file's text, paired by line
    number. A blank line pairs only with a blank line, and both are skipped."""
    hyps = _read_lines(hyp_text)
    refs = [_parse_ref(ref_path, n, line) for n, line in enumerate(_read_lines(ref_text), 1)]
    corpus = []
    for n, (hyp, ref) in enumerate(zip(hyps, refs), 1):
        if bool(hyp.strip()) != (ref is not None):
            blank, other = (hyp_path, ref_path) if ref is not None else (ref_path, hyp_path)
            raise MetricError(f"{blank}:{n}: blank line opposite a non-blank line of {other}")
        if ref is not None:
            corpus.append((hyp, ref))
    if len(hyps) != len(refs):
        raise MetricError(f"hypothesis/reference line counts differ: {len(hyps)} vs {len(refs)}")
    return corpus


def _metric_table(metrics: dict[str, float]) -> str:
    width = max(len(name) for name in metrics)
    lines = [f"{name:<{width}}  {value:.6f}" for name, value in metrics.items()]
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest) -> Steps:
    from .evaluate import METRIC_NAMES, check_metric_names, metric_report

    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    if not names:
        raise MetricError(f"no metrics named (known: {', '.join(METRIC_NAMES)})")
    check_metric_names(names)

    def work(corpus: list[tuple[str, list[str]]]):
        with manifest.timed("score"):
            report = metric_report(corpus, names)
        manifest.count("score", len(corpus))
        manifest.count("meteor-fallback", report["meteor_fallbacks"])
        if not args.out:
            sys.stdout.write(_dump_json(report))
        if args.table:
            sys.stdout.write(_metric_table(report["metrics"]) + "\n")
        return EXIT_OK, {args.out: report} if args.out else {}

    return lambda hyp, ref: _read_corpus(args.hyp, hyp, args.ref, ref), work


def cmd_filter(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest) -> Steps:
    from .evaluate import filter_generated, read_traces

    def work(items: list[dict]):
        with manifest.timed("filter"):
            kept, dropped = filter_generated(items, config.min_words, config.max_words)
        manifest.count("filter", len(kept))
        manifest.count("dropped", len(dropped))
        outputs = {args.out: kept}
        if args.rejects:
            outputs[args.rejects] = [{"reason": reason, "item": item} for item, reason in dropped]
        return EXIT_OK, outputs

    return lambda text: read_traces(args.traces, text, optional=("question", "answer")), work


def cmd_probe(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest, qa) -> Steps:
    from .evaluate import difficulty_probe, read_traces

    def work(traces: list[dict]):
        with manifest.timed("probe"):
            result = difficulty_probe(traces, qa, concurrency=config.concurrency)
        manifest.count("probe", len(traces) - result.failures)
        manifest.count("failed", result.failures)
        sys.stdout.write(result.format_table() + "\n")
        return EXIT_PARTIAL if result.incomplete else EXIT_OK, {args.out: result.to_json()} if args.out else {}

    return lambda text: read_traces(args.traces, text, required=("question", "answer", "context", "d")), work


def cmd_augment(args: argparse.Namespace, config: PipelineConfig, manifest: RunManifest) -> Steps:
    from .evaluate import emit_augmentation, read_traces

    def work(inputs: tuple[list[dict], list[dict]]):
        generated, originals = inputs
        with manifest.timed("mix"):
            mixed = emit_augmentation(generated, originals, ratio=config.oversample_ratio, seed=args.seed)
        manifest.count("mix", len(mixed))
        return EXIT_OK, {args.out: mixed}

    return lambda traces, originals: (read_traces(args.traces, traces), read_traces(args.originals, originals)), work


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it as it was, and a process may call main many times."""
    parser = argparse.ArgumentParser(
        prog="hopqg",
        description="Hop-controlled multi-hop question generation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"hopqg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument(
            "--manifest",
            help="manifest path (default: <out>.manifest.json, else beside the first input)",
        )
        p.add_argument(
            "--manifest-only",
            action="store_true",
            help="validate config, digest inputs, write the manifest, do no work",
        )
        # Not flags: the service roles main builds for the command, and the
        # config field -> flag overrides main applies before the manifest.
        # Each subparser also names its input-file options in ``inputs``
        # and its output-file options in ``outputs``.
        p.set_defaults(roles=(), flags={})

    p = sub.add_parser("build-graph", help="annotated context JSON -> context graph JSON")
    p.add_argument("--context", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_build_graph, inputs=("context",), outputs=("out",))

    p = sub.add_parser("generate", help="plan chains and generate question traces")
    p.add_argument("--context", required=True, help="contexts: one JSON object, an array, or JSONL")
    p.add_argument("--d", type=int, default=2, help="difficulty: inference hops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("template", "remote"), default="template")
    p.add_argument("--answer", help="force this surface as the answer node")
    p.add_argument("--count", type=int, default=1, help="questions per context (seed+k)")
    p.add_argument("--out", required=True, help="traces JSONL")
    common(p)
    p.set_defaults(func=cmd_generate, inputs=("context",), outputs=("out",), roles=("generator",))

    p = sub.add_parser("build-dataset", help="two-hop QA records -> training tuples")
    p.add_argument("--hotpot", required=True, help="records: one JSON object, an array, or JSONL")
    p.add_argument("--backends", choices=("rule", "remote"), default="rule")
    p.add_argument("--out", required=True, help="examples JSONL")
    p.add_argument("--stats", help="skip/error accounting JSON")
    common(p)
    p.set_defaults(
        func=cmd_build_dataset, inputs=("hotpot",), outputs=("out", "stats"), roles=("classifier", "decomposer", "qa")
    )

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True, help="one hypothesis per line")
    p.add_argument("--ref", required=True, help="reference per line: string or JSON array")
    p.add_argument("--metrics", default=DEFAULT_METRICS, help="comma list of metric names (an unknown one lists them all)")
    p.add_argument("--out", help="report JSON (default: stdout)")
    p.add_argument("--table", action="store_true", help="also print an aligned table")
    common(p)
    p.set_defaults(func=cmd_evaluate, inputs=("hyp", "ref"), outputs=("out",))

    p = sub.add_parser("filter", help="drop questions by length bounds and answer leaks")
    p.add_argument("--traces", required=True, help="records with question/answer fields")
    p.add_argument("--out", required=True, help="kept records JSONL")
    p.add_argument("--rejects", help="dropped records JSONL with reasons")
    p.add_argument("--min-words", type=int, default=None)
    p.add_argument("--max-words", type=int, default=None)
    common(p)
    p.set_defaults(
        func=cmd_filter,
        inputs=("traces",),
        outputs=("out", "rejects"),
        flags={"min_words": "min_words", "max_words": "max_words"},
    )

    p = sub.add_parser("probe", help="per-difficulty EM/F1 of a single-hop QA backend")
    p.add_argument("--traces", required=True, help="trace records")
    p.add_argument("--backend", choices=("rule", "remote"), default="remote")
    p.add_argument("--out", help="report JSON")
    common(p)
    p.set_defaults(func=cmd_probe, inputs=("traces",), outputs=("out",), roles=("qa",))

    p = sub.add_parser("augment", help="mix generated questions into QA training data")
    p.add_argument("--traces", required=True, help="generated records")
    p.add_argument("--originals", required=True, help="original records")
    p.add_argument("--ratio", type=float, default=None, help="original:generated target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(
        func=cmd_augment, inputs=("traces", "originals"), outputs=("out",), flags={"oversample_ratio": "ratio"}
    )

    return parser


@contextlib.contextmanager
def _collector_paused():
    """The block with the cyclic garbage collector off, and after it on
    again if it was on before.

    A run's items (contexts, graphs, chains, records, scores) hold no
    reference cycles, so reference counting frees each one as soon as the
    run drops it; collections during the run would only walk the live
    objects again and again. The block calls _run, which drops the last of
    them as it returns, so the collector resumes with none of them left to
    walk. Any cycle made in the block waits until the collector runs after
    it, so per-item data must stay acyclic."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace, manifest: RunManifest, steps: Steps) -> int:
    """Read the inputs, work on them and write the outputs; returns only the
    exit code, so everything the run read and made is freed on return."""
    read, work = steps
    with manifest.timed("read"):
        inputs = read(*[manifest.read(getattr(args, name)) for name in args.inputs])
    code, outputs = work(inputs)
    with manifest.timed("write"):
        # A list of records is written as JSONL, a report as JSON. Every
        # output is encoded before any is opened, so one that UTF-8 cannot
        # hold leaves no file.
        encoded = {
            path: encode_text(path, jsonl_text(content) if isinstance(content, list) else _dump_json(content))
            for path, content in outputs.items()
        }
        for path, data in encoded.items():
            manifest.outputs[path] = write_bytes(path, data)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _with_flags(
            load_config(args.config), **{field: getattr(args, flag) for field, flag in args.flags.items()}
        )
        # build-dataset names its choice --backends, the others --backend.
        backend = getattr(args, "backend", None) or getattr(args, "backends", None)
        services = _services(args.roles, backend, config)
        manifest = RunManifest(
            command=args.command,
            version=__version__,
            config=config.to_json(),
            arguments={
                k: v
                for k, v in vars(args).items()
                if k not in ("func", "inputs", "outputs", "roles", "flags", "manifest_only")
            },
        )
        if backend != "remote":  # only a remote call waits, so only a remote run gains from threads
            config = config._replace(concurrency=1)
        manifest_path = _manifest_path(args)
        code = EXIT_OK
        try:
            _check_writable({f"--{name}": getattr(args, name) for name in args.outputs} | {"--manifest": manifest_path})
            steps = args.func(args, config, manifest, **services)
            if args.manifest_only:  # decodes nothing, so digests the inputs on disk
                for name in args.inputs:
                    manifest.add_input(getattr(args, name))
            else:
                with _collector_paused():
                    code = _run(args, manifest, steps)
        finally:
            if backend == "remote":
                for role, service in services.items():
                    service.client.close()
                    if not args.manifest_only:
                        for counter, n in service.client.counts.items():
                            manifest.count(f"remote.{role}.{counter}", n)
        manifest.write(manifest_path)
        return code
    # A missing or directory path is bad input; other OSErrors (a closed
    # stdout pipe, a full disk) are not, and keep their traceback.
    except (FileNotFoundError, IsADirectoryError, ConfigError, AnnotationError, MetricError) as exc:
        stderr_line(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
