"""Post-generation filters, corpus reports, difficulty probe, augmentation files."""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .errors import AnnotationError, BackendError, MetricError, invalid_json
from .metrics import (
    TOKENIZER_SPEC,
    bleu_n,
    cider,
    exact_match,
    meteor_simplified,
    normalize_answer,
    rouge_l,
    token_f1,
)

MIN_WORDS = 6
MAX_WORDS = 30

REASON_LENGTH = "length"
REASON_LEAK = "leak"


def filter_generated(
    pairs: list[dict],
    min_words: int = MIN_WORDS,
    max_words: int = MAX_WORDS,
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
_CORPUS_LEVEL = {
    "bleu1": lambda c: bleu_n(c, 1),
    "bleu2": lambda c: bleu_n(c, 2),
    "bleu3": lambda c: bleu_n(c, 3),
    "bleu4": lambda c: bleu_n(c, 4),
    "cider": cider,
}
METRIC_NAMES = tuple(sorted(_CORPUS_LEVEL) + sorted(_PAIRWISE))


def metric_report(corpus: list[tuple[str, list[str]]], names: list[str]) -> dict:
    """Score a corpus with the named metrics.

    Pairwise metrics (ROUGE-L, METEOR-s) are aggregated as the mean over
    items of the best score against any reference; BLEU and CIDEr are
    corpus-level by definition.
    """
    scores: dict[str, float] = {}
    for name in names:
        if name in _CORPUS_LEVEL:
            scores[name] = _CORPUS_LEVEL[name](corpus)
        elif name in _PAIRWISE:
            fn = _PAIRWISE[name]
            if not corpus:
                raise MetricError("empty corpus")
            scores[name] = sum(
                max(fn(hyp, ref) for ref in refs) for hyp, refs in corpus
            ) / len(corpus)
        else:
            raise MetricError(f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")
    return {"items": len(corpus), "tokenizer": TOKENIZER_SPEC, "metrics": scores}


@dataclass
class ProbeBucket:
    count: int = 0
    em_sum: float = 0.0
    f1_sum: float = 0.0

    @property
    def em(self) -> float:
        return self.em_sum / self.count if self.count else 0.0

    @property
    def f1(self) -> float:
        return self.f1_sum / self.count if self.count else 0.0


@dataclass
class ProbeResult:
    """Per-difficulty EM/F1 means from querying a QA backend over traces."""

    backend: str
    buckets: dict[int, ProbeBucket] = field(default_factory=dict)
    failures: int = 0
    incomplete: bool = False

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


def difficulty_probe(traces: list[dict], qa_backend, concurrency: int = 8) -> ProbeResult:
    """Ask the QA backend each trace's question against its context.

    Scores are bucketed by the trace's difficulty d. Backend failures are
    counted and flag the result incomplete rather than aborting the run;
    aggregation is order-independent so concurrent completion is safe.
    """
    result = ProbeResult(backend=getattr(qa_backend, "name", type(qa_backend).__name__))

    def ask(trace: dict):
        return qa_backend.answer(trace["question"], trace["context"])

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        answers = []
        for trace, future in [(t, pool.submit(ask, t)) for t in traces]:
            try:
                answers.append((trace, future.result()))
            except BackendError:
                result.failures += 1
                result.incomplete = True
    for trace, predicted in answers:
        bucket = result.buckets.setdefault(int(trace["d"]), ProbeBucket())
        bucket.count += 1
        bucket.em_sum += exact_match(predicted, trace["answer"])
        bucket.f1_sum += token_f1(predicted, trace["answer"])
    return result


def oversample_factor(n_original: int, n_generated: int, ratio: float) -> int:
    """Duplication factor making originals at least ratio x generated."""
    if ratio < 1:
        raise MetricError("oversample ratio must be >= 1")
    if n_original == 0 or n_generated == 0:
        return 1
    return max(1, math.ceil(ratio * n_generated / n_original))


def emit_augmentation(
    generated: list[dict],
    originals: list[dict],
    ratio: float = 4.0,
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


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str) -> list[dict]:
    """One JSON value per non-blank line; a bad line raises AnnotationError
    naming ``path:line``."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise AnnotationError(invalid_json(path, exc, n)) from exc
    return records
