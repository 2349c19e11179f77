"""Command-line surface binding the pipeline stages together.

Exit codes: 0 success, 1 partial (some items failed and were logged),
2 invalid input or config. Every completed command writes a RunManifest
recording its config snapshot, input/output digests and stage counts.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .config import PipelineConfig, load_config
from .context import AnnotatedContext
from .dataset_builder import (
    BackendSuite,
    RuleDecomposer,
    RuleQa,
    RuleTypeClassifier,
    build_dataset,
)
from .errors import (
    AnnotationError,
    ConfigError,
    HopqgError,
    MetricError,
    invalid_json,
    load_json,
)
from .evaluate import (
    METRIC_NAMES,
    difficulty_probe,
    emit_augmentation,
    filter_generated,
    metric_report,
    read_jsonl,
    write_jsonl,
)
from .graph import ContextGraph, build_context_graph
from .hotpot import load_hotpot
from .manifest import RunManifest, StageClock, StageTimer
from .pipeline import generate_stepwise
from .planner import plan_chain
from .remote import (
    RemoteDecomposer,
    RemoteGeneratorBackend,
    RemoteQa,
    RemoteTypeClassifier,
)
from .template import TemplateBackend

logger = logging.getLogger("hopqg.cli")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2

DEFAULT_METRICS = "bleu3,bleu4,rouge-l,meteor-s,cider"


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _manifest_path(args: argparse.Namespace) -> str:
    if args.manifest:
        return args.manifest
    out = getattr(args, "out", None)
    if out:
        return out + ".manifest.json"
    return f"hopqg-{args.command}-manifest.json"


def _new_manifest(args: argparse.Namespace, config: PipelineConfig, inputs: list[str]) -> RunManifest:
    recorded = {
        k: v for k, v in vars(args).items() if k not in ("func", "manifest_only")
    }
    manifest = RunManifest(
        command=args.command,
        version=__version__,
        config=config.to_json(),
        arguments=recorded,
    )
    for path in inputs:
        manifest.add_input(path)
    return manifest


def _finish(manifest: RunManifest, args: argparse.Namespace, outputs: list[str]) -> None:
    for path in outputs:
        manifest.add_output(path)
    manifest.write(_manifest_path(args))


def _load_context_docs(path: str) -> list[AnnotatedContext]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise AnnotationError(f"{path} is empty")
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        # A whole first object followed by more is JSONL (one object per
        # line); any other error is reported where the decoder stopped.
        if exc.msg != "Extra data" or text.lstrip().startswith("["):
            raise AnnotationError(invalid_json(path, exc)) from exc
        docs = read_jsonl(path)
    if isinstance(docs, dict):
        docs = [docs]
    if not isinstance(docs, list):
        raise AnnotationError(f"{path} must hold a context object or array")
    return [AnnotatedContext.from_json(doc) for doc in docs]


def cmd_build_graph(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.context])
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    contexts = _load_context_docs(args.context)
    if len(contexts) != 1:
        raise AnnotationError("build-graph expects exactly one annotated context")
    with StageTimer(manifest, "build") as stage:
        graph = build_context_graph(contexts[0])
        stage.count = 1
    _write_text(args.out, _dump_json(graph.to_json()))
    _finish(manifest, args, [args.out])
    return EXIT_OK


def _generator_backend(name: str, config: PipelineConfig):
    if name == "template":
        return TemplateBackend()
    url = config.endpoints.generator
    if not url:
        raise ConfigError(
            "backend 'remote' needs endpoints.generator (or HOPQG_GENERATOR_URL)"
        )
    return RemoteGeneratorBackend(
        url,
        top_p=config.top_p,
        max_tokens=config.max_tokens,
        timeout=config.timeout,
        retries=config.retries,
    )


class _SharedGraph:
    """One context's graph, shared by its seed jobs: the first job to run
    builds it and the last to finish drops it, so only contexts with jobs
    pending hold a graph."""

    def __init__(self, ctx: AnnotatedContext, jobs: int):
        self.ctx = ctx
        self.pending = jobs
        self.lock = threading.Lock()
        self.graph: ContextGraph | None = None
        self.error: HopqgError | None = None

    def get(self, clock: StageClock) -> tuple[ContextGraph | None, HopqgError | None]:
        with self.lock:
            if self.graph is None and self.error is None:
                try:
                    with clock.timed("build"):
                        self.graph = build_context_graph(self.ctx)
                except HopqgError as exc:
                    self.error = exc
            return self.graph, self.error

    def release(self) -> None:
        with self.lock:
            self.pending -= 1
            if not self.pending:
                self.graph = None


def cmd_generate(args: argparse.Namespace, config: PipelineConfig) -> int:
    for flag, value in (("--d", args.d), ("--count", args.count)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    manifest = _new_manifest(args, config, [args.context])
    backend = _generator_backend(args.backend, config)
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    contexts = _load_context_docs(args.context)
    shared = [_SharedGraph(ctx, args.count) for ctx in contexts]
    jobs = [
        (index, args.seed + k)
        for index in range(len(contexts))
        for k in range(args.count)
    ]
    clock = StageClock("build", "plan", "generate")

    def run(job):
        index, seed = job
        share = shared[index]
        try:
            graph, error = share.get(clock)
            if error is not None:
                return None, (index, seed, error)
            with clock.timed("plan"):
                chain = plan_chain(graph, args.d, seed=seed, answer_text=args.answer)
            with clock.timed("generate"):
                trace = generate_stepwise(
                    share.ctx, graph, chain, backend, config.category_overrides
                )
            return trace, None
        except HopqgError as exc:
            return None, (index, seed, exc)
        finally:
            share.release()

    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        results = list(pool.map(run, jobs))

    traces = [trace for trace, _ in results if trace is not None]
    failures = [failure for _, failure in results if failure is not None]
    for index, seed, exc in failures:
        logger.warning("context %d seed %d failed: %s", index, seed, exc)
    write_jsonl([t.to_json() for t in traces], args.out)

    rewrites = sum(len(t.steps) - 1 for t in traces)
    clock.record(manifest)
    manifest.stage("initial", len(traces), 0.0)
    manifest.stage("rewrite", rewrites, 0.0)
    manifest.stage("failed", len(failures), 0.0)
    _finish(manifest, args, [args.out])
    return EXIT_PARTIAL if failures else EXIT_OK


def _dataset_backends(name: str, config: PipelineConfig) -> BackendSuite:
    if name == "rule":
        return BackendSuite.rule()
    ep = config.endpoints
    missing = [
        role
        for role, url in (
            ("classifier", ep.classifier),
            ("decomposer", ep.decomposer),
            ("qa", ep.qa),
        )
        if not url
    ]
    if missing:
        raise ConfigError(
            "backend 'remote' needs endpoints for: " + ", ".join(missing)
        )
    kw = {"timeout": config.timeout, "retries": config.retries}
    return BackendSuite(
        classifier=RemoteTypeClassifier(ep.classifier, **kw),
        decomposer=RemoteDecomposer(ep.decomposer, **kw),
        qa=RemoteQa(ep.qa, **kw),
    )


def cmd_build_dataset(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.hotpot])
    # Backends resolve before any record is read so a missing endpoint
    # fails fast instead of after a long partial run.
    backends = _dataset_backends(args.backends, config)
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    records = load_hotpot(args.hotpot)
    with StageTimer(manifest, "build") as stage:
        examples, stats = build_dataset(records, backends, concurrency=config.concurrency)
        stage.count = len(examples)
    write_jsonl([ex.to_json() for ex in examples], args.out)
    outputs = [args.out]
    if args.stats:
        _write_text(args.stats, _dump_json(stats))
        outputs.append(args.stats)
    manifest.stage("skipped", sum(stats["skips"].values()), 0.0)
    manifest.stage("errors", stats["errors"], 0.0)
    _finish(manifest, args, outputs)
    return EXIT_PARTIAL if stats["errors"] else EXIT_OK


def _read_lines(path: str) -> list[tuple[int, str]]:
    """Non-blank lines with their 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, 1) if line.strip()]


def _parse_refs(path: str) -> list[list[str]]:
    refs = []
    for n, line in _read_lines(path):
        if line.lstrip().startswith("["):
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MetricError(invalid_json(path, exc, n)) from exc
            if not isinstance(parsed, list) or not all(isinstance(r, str) for r in parsed):
                raise MetricError("reference lines must be strings or JSON string arrays")
            refs.append(parsed)
        else:
            refs.append([line])
    return refs


def _metric_table(metrics: dict[str, float]) -> str:
    width = max(len(name) for name in metrics)
    lines = [f"{name:<{width}}  {value:.6f}" for name, value in metrics.items()]
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.hyp, args.ref])
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    hyps = [line for _, line in _read_lines(args.hyp)]
    refs = _parse_refs(args.ref)
    if len(hyps) != len(refs):
        raise MetricError(
            f"hypothesis/reference line counts differ: {len(hyps)} vs {len(refs)}"
        )
    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    with StageTimer(manifest, "score") as stage:
        report = metric_report(list(zip(hyps, refs)), names)
        stage.count = len(hyps)
    text = _dump_json(report)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.table:
        sys.stdout.write(_metric_table(report["metrics"]) + "\n")
    _finish(manifest, args, [args.out] if args.out else [])
    return EXIT_OK


def cmd_filter(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.traces])
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    items = read_jsonl(args.traces)
    min_words = config.min_words if args.min_words is None else args.min_words
    max_words = config.max_words if args.max_words is None else args.max_words
    with StageTimer(manifest, "filter") as stage:
        kept, dropped = filter_generated(items, min_words, max_words)
        stage.count = len(kept)
    write_jsonl(kept, args.out)
    outputs = [args.out]
    if args.rejects:
        write_jsonl(
            [{"reason": reason, "item": item} for item, reason in dropped],
            args.rejects,
        )
        outputs.append(args.rejects)
    manifest.stage("dropped", len(dropped), 0.0)
    _finish(manifest, args, outputs)
    return EXIT_OK


def cmd_probe(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.traces])
    if args.backend == "rule":
        qa = RuleQa()
    else:
        if not config.endpoints.qa:
            raise ConfigError("backend 'remote' needs endpoints.qa (or HOPQG_QA_URL)")
        qa = RemoteQa(config.endpoints.qa, timeout=config.timeout, retries=config.retries)
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    traces = read_jsonl(args.traces)
    with StageTimer(manifest, "probe") as stage:
        result = difficulty_probe(traces, qa, concurrency=config.concurrency)
        stage.count = len(traces) - result.failures
    manifest.stage("failed", result.failures, 0.0)
    sys.stdout.write(result.format_table() + "\n")
    outputs = []
    if args.out:
        _write_text(args.out, _dump_json(result.to_json()))
        outputs.append(args.out)
    _finish(manifest, args, outputs)
    return EXIT_PARTIAL if result.incomplete else EXIT_OK


def _load_qa_records(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        array = fh.read().lstrip().startswith("[")
    return load_json(path) if array else read_jsonl(path)


def cmd_augment(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = _new_manifest(args, config, [args.traces, args.originals])
    if args.manifest_only:
        _finish(manifest, args, [])
        return EXIT_OK
    generated = read_jsonl(args.traces)
    originals = _load_qa_records(args.originals)
    ratio = config.oversample_ratio if args.ratio is None else args.ratio
    with StageTimer(manifest, "mix") as stage:
        mixed = emit_augmentation(generated, originals, ratio=ratio, seed=args.seed)
        stage.count = len(mixed)
    write_jsonl(mixed, args.out)
    _finish(manifest, args, [args.out])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopqg",
        description="Hop-controlled multi-hop question generation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"hopqg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
        p.add_argument(
            "--manifest-only",
            action="store_true",
            help="validate config, digest inputs, write the manifest, do no work",
        )

    p = sub.add_parser("build-graph", help="annotated context JSON -> context graph JSON")
    p.add_argument("--context", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("generate", help="plan chains and generate question traces")
    p.add_argument("--context", required=True, help="context JSON, array, or JSONL")
    p.add_argument("--d", type=int, default=2, help="difficulty: inference hops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("template", "remote"), default="template")
    p.add_argument("--answer", help="force this surface as the answer node")
    p.add_argument("--count", type=int, default=1, help="questions per context (seed+k)")
    p.add_argument("--out", required=True, help="traces JSONL")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build-dataset", help="two-hop QA records -> training tuples")
    p.add_argument("--hotpot", required=True, help="records JSON array")
    p.add_argument("--backends", choices=("rule", "remote"), default="rule")
    p.add_argument("--out", required=True, help="examples JSONL")
    p.add_argument("--stats", help="skip/error accounting JSON")
    common(p)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True, help="one hypothesis per line")
    p.add_argument("--ref", required=True, help="reference per line: string or JSON array")
    p.add_argument("--metrics", default=DEFAULT_METRICS, help=f"comma list from: {','.join(METRIC_NAMES)}")
    p.add_argument("--out", help="report JSON (default: stdout)")
    p.add_argument("--table", action="store_true", help="also print an aligned table")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("filter", help="drop questions by length bounds and answer leaks")
    p.add_argument("--traces", required=True, help="JSONL with question/answer fields")
    p.add_argument("--out", required=True, help="kept records JSONL")
    p.add_argument("--rejects", help="dropped records JSONL with reasons")
    p.add_argument("--min-words", type=int, default=None)
    p.add_argument("--max-words", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("probe", help="per-difficulty EM/F1 of a single-hop QA backend")
    p.add_argument("--traces", required=True, help="traces JSONL")
    p.add_argument("--backend", choices=("rule", "remote"), default="remote")
    p.add_argument("--out", help="report JSON")
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("augment", help="mix generated questions into QA training data")
    p.add_argument("--traces", required=True, help="generated records JSONL")
    p.add_argument("--originals", required=True, help="original records JSON/JSONL")
    p.add_argument("--ratio", type=float, default=None, help="original:generated target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ConfigError, AnnotationError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
