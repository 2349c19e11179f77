"""Post-generation filters, corpus reports, difficulty probe, augmentation files."""

from __future__ import annotations

import math
import random

from .config import PipelineConfig
# write_jsonl is exported from here too, where the benchmark traces it.
from .errors import (
    AnnotationError, BackendError, Failure, MetricError, is_integral, json_kind, map_jobs, read_records, write_jsonl,
)
from .metrics import (
    CIDER_ORDER,
    TOKENIZER_SPEC,
    TokenTable,
    _check_corpus,
    _NgramPass,
    bleu_n,
    cider,
    exact_match,
    left_sum,
    meteor_simplified,
    rouge_l,
    token_f1,
)
from .textutil import normalize_answer

REASON_LENGTH = "length"
REASON_LEAK = "leak"


def filter_generated(
    pairs: list[dict],
    min_words: int = PipelineConfig._field_defaults["min_words"],
    max_words: int = PipelineConfig._field_defaults["max_words"],
) -> tuple[list[dict], list[tuple[dict, str]]]:
    """Partition question/answer records into kept and (dropped, reason) lists.

    A record is dropped when its question's whitespace word count falls
    outside [min_words, max_words] (both ends inclusive) or when the
    normalized answer occurs verbatim inside the normalized question.
    Records with an answer that normalizes to the empty string cannot leak.
    """
    kept: list[dict] = []
    dropped: list[tuple[dict, str]] = []
    for item in pairs:
        question = item.get("question", "")
        answer = item.get("answer", "")
        words = len(question.split())
        if words < min_words or words > max_words:
            dropped.append((item, REASON_LENGTH))
            continue
        norm_answer = normalize_answer(answer)
        if norm_answer and norm_answer in normalize_answer(question):
            dropped.append((item, REASON_LEAK))
            continue
        kept.append(item)
    return kept, dropped


_PAIRWISE = {
    "rouge-l": rouge_l,
    "meteor-s": meteor_simplified,
}
_BLEU_ORDERS = {f"bleu{n}": n for n in range(1, 5)}
_CORPUS_LEVEL = (*_BLEU_ORDERS, "cider")
METRIC_NAMES = tuple(sorted(_CORPUS_LEVEL) + sorted(_PAIRWISE))


def check_metric_names(names: list[str]) -> None:
    """Raise MetricError naming the first unknown name, with the known ones."""
    for name in names:
        if name not in _CORPUS_LEVEL and name not in _PAIRWISE:
            raise MetricError(f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")


def metric_report(corpus: list[tuple[str, list[str]]], names: list[str]) -> dict:
    """Score a corpus with the named metrics.

    Pairwise metrics (ROUGE-L, METEOR-s) are aggregated as the mean over
    items of the best score against any reference; BLEU and CIDEr are
    corpus-level by definition and read one n-gram pass over the corpus,
    of CIDER_ORDER when CIDEr is named, else of the highest BLEU order
    named. Every metric reads one TokenTable, so each distinct text is
    tokenized once per report, and each distinct token stemmed once.
    ``meteor_fallbacks`` counts the METEOR-s alignments whose search ran
    out of nodes, so their chunk count may be above the fewest possible.
    """
    check_metric_names(names)
    _check_corpus(corpus)
    with_cider = "cider" in names
    order = CIDER_ORDER if with_cider else max((_BLEU_ORDERS.get(name, 0) for name in names), default=0)
    table = TokenTable()
    ngrams = None
    scores: dict[str, float] = {}
    for name in names:
        if name in _CORPUS_LEVEL:
            if ngrams is None:
                ngrams = _NgramPass(corpus, order, with_cider, table)
            scores[name] = cider(ngrams) if name == "cider" else bleu_n(ngrams, _BLEU_ORDERS[name])
        else:
            fn = _PAIRWISE[name]
            scores[name] = left_sum(
                max(fn(hyp, ref, table) for ref in refs) for hyp, refs in corpus
            ) / len(corpus)
    return {
        "items": len(corpus),
        "tokenizer": TOKENIZER_SPEC,
        "metrics": scores,
        "meteor_fallbacks": table.fallbacks,
    }


class ProbeBucket:
    def __init__(self) -> None:
        self.count = 0
        self.em_sum = 0.0
        self.f1_sum = 0.0

    # No count is 0 when read: difficulty_probe counts a bucket as it makes it.
    @property
    def em(self) -> float:
        return self.em_sum / self.count

    @property
    def f1(self) -> float:
        return self.f1_sum / self.count


class ProbeResult:
    """Per-difficulty EM/F1 means from querying a QA backend over traces."""

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.buckets: dict[int, ProbeBucket] = {}
        self.failures = 0

    @property
    def incomplete(self) -> bool:
        return self.failures > 0

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "incomplete": self.incomplete,
            "failures": self.failures,
            "per_d": {
                str(d): {"count": b.count, "em": b.em, "f1": b.f1}
                for d, b in sorted(self.buckets.items())
            },
        }

    def format_table(self) -> str:
        rows = [("d", "count", "EM", "F1")]
        for d, b in sorted(self.buckets.items()):
            rows.append((str(d), str(b.count), f"{b.em:.4f}", f"{b.f1:.4f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
        if self.incomplete:
            lines.append(f"(incomplete: {self.failures} backend failures)")
        return "\n".join(lines)


def difficulty_probe(traces: list[dict], qa_backend, concurrency: int = 1) -> ProbeResult:
    """Ask the QA backend each trace's question against its context on `concurrency` threads,
    which bound parallel remote calls (at 1, the calling thread), and score the answers in trace order.

    Scores are bucketed by the trace's difficulty d. Backend failures are
    counted and flag the result incomplete rather than aborting the run.
    """
    result = ProbeResult(backend=getattr(qa_backend, "name", type(qa_backend).__name__))

    def ask(trace: dict) -> str | Failure:
        try:
            return qa_backend.answer(trace["question"], trace["context"])
        except BackendError as exc:
            return Failure(str(exc))

    for trace, predicted in zip(traces, map_jobs(ask, traces, concurrency)):
        if type(predicted) is Failure:
            result.failures += 1
            continue
        bucket = result.buckets.setdefault(int(trace["d"]), ProbeBucket())
        bucket.count += 1
        bucket.em_sum += exact_match(predicted, trace["answer"])
        bucket.f1_sum += token_f1(predicted, trace["answer"])
    return result


def oversample_factor(n_original: int, n_generated: int, ratio: float) -> int:
    """Duplication factor making originals at least ratio x generated."""
    if ratio < 1:
        raise MetricError("oversample ratio must be >= 1")
    if n_original == 0:
        return 1
    return max(1, math.ceil(ratio * n_generated / n_original))


def emit_augmentation(
    generated: list[dict],
    originals: list[dict],
    ratio: float = PipelineConfig._field_defaults["oversample_ratio"],
    seed: int = 0,
) -> list[dict]:
    """Mix generated QA records with oversampled originals for QA training.

    Originals are each duplicated by the same whole factor, so the output
    holds len(originals) * factor + len(generated) records, shuffled with
    the given seed. Records pass through untouched except a "source" tag.
    """
    factor = oversample_factor(len(originals), len(generated), ratio)
    out: list[dict] = []
    for record in originals:
        tagged = dict(record)
        tagged["source"] = "original"
        out.extend(dict(tagged) for _ in range(factor))
    for record in generated:
        tagged = dict(record)
        tagged["source"] = "generated"
        out.append(tagged)
    random.Random(seed).shuffle(out)
    return out


# What `filter`, `probe` and `augment` may read of a question record:
# field -> (check, what the field must be).
_TRACE_FIELDS = {
    "question": (lambda v: type(v) is str, "a string"),
    "answer": (lambda v: type(v) is str, "a string"),
    "context": (lambda v: type(v) is str, "a string"),
    "d": (is_integral, "an integer"),
}


def _check_trace(obj: dict, required: tuple[str, ...] = (), optional: tuple[str, ...] = ()) -> dict:
    """obj, once it holds each of ``required`` and each field of ``required``
    or ``optional`` it holds is usable; a violation raises AnnotationError
    naming no place: read_records adds where the record sits."""
    for name in required:
        if name not in obj:
            raise AnnotationError(f"record has no {name!r}")
    for name in required + optional:
        check, kind = _TRACE_FIELDS[name]
        if name in obj and not check(obj[name]):
            raise AnnotationError(f"{name!r} must be {kind}, got {json_kind(obj[name])}")
    # d counts inference hops, as generate's --d does: at least one, and one
    # more than the intermediate questions of a trace that lists them.
    if "d" in required:
        if obj["d"] < 1:
            raise AnnotationError(f"'d' must be >= 1, got {obj['d']}")
        if "intermediates" in obj:
            steps = obj["intermediates"]
            if type(steps) is not list or not all(type(step) is str for step in steps):
                raise AnnotationError("'intermediates' must be an array of strings")
            if obj["d"] != len(steps) + 1:
                raise AnnotationError(f"'d' must be one more than the {len(steps)} intermediates, got {obj['d']}")
    return obj


def read_traces(path: str, text: str, required: tuple[str, ...] = (), optional: tuple[str, ...] = ()) -> list[dict]:
    """The question records of the file path, given its text, each checked by _check_trace."""
    return read_records(path, text, "record", lambda obj: _check_trace(obj, required, optional))
