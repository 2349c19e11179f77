"""Two-hop QA record loading plus a pattern-based fallback annotator.

Records follow the HotpotQA distribution schema. Each record may carry an
optional "annotations" field holding a full annotated-context document for
its two consumed paragraphs; records without one get a lower-fidelity
pattern-extracted annotation so the rest of the pipeline still runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .context import AnnotatedContext, Sentence, Span, Triple
from .errors import AnnotationError, load_json
from .textutil import collapse

_WORD_RE = re.compile(r"\S+")

# Pivot vocabulary for the fallback triple extractor.
_COPULAS = {"is", "was", "are", "were"}
_PARTICLES = {"by", "in", "of", "as", "for", "to", "from", "at", "on", "with"}
_PARTICIPLES = {
    "born", "known", "written", "made", "built", "held", "won", "taken",
    "given", "shown", "seen", "set", "run", "named", "based",
}
_PLAIN_VERBS = {
    "won", "wrote", "made", "built", "ran", "runs", "owns", "owned",
    "holds", "held", "became", "sang", "taught", "knew", "founded",
    "stars", "starred", "directs", "directed", "composed", "composes",
    "borders", "bordered", "plays", "played", "hosts", "hosted",
}


@dataclass
class Paragraph:
    title: str
    sentences: list[str]

    def text(self) -> str:
        return " ".join(collapse(s) for s in self.sentences)


@dataclass
class HotpotRecord:
    record_id: str
    question: str
    answer: str
    paragraphs: list[Paragraph]
    supporting_facts: list[tuple[str, int]]
    annotations: dict | None = field(default=None, repr=False)


def parse_record(obj: dict) -> HotpotRecord:
    """Validate one distribution-schema dict and resolve its two paragraphs.

    The paragraphs the pipeline consumes are the ones named by supporting
    facts, kept in first-mention order; there must be exactly two.
    """
    try:
        record_id = str(obj["_id"])
        question = obj["question"]
        answer = obj["answer"]
        raw_context = obj["context"]
        raw_facts = obj["supporting_facts"]
    except KeyError as exc:
        raise AnnotationError(f"record missing field {exc}") from exc
    if not isinstance(question, str) or not question.strip():
        raise AnnotationError(f"record {record_id}: empty question")
    by_title = {}
    for entry in raw_context:
        title, sentences = entry[0], list(entry[1])
        by_title[title] = sentences
    facts: list[tuple[str, int]] = []
    titles: list[str] = []
    for title, idx in raw_facts:
        if title not in by_title:
            raise AnnotationError(
                f"record {record_id}: supporting fact names unknown paragraph {title!r}"
            )
        if not 0 <= idx < len(by_title[title]):
            raise AnnotationError(
                f"record {record_id}: supporting fact ({title!r}, {idx}) out of range"
            )
        facts.append((title, int(idx)))
        if title not in titles:
            titles.append(title)
    if len(titles) != 2:
        raise AnnotationError(
            f"record {record_id}: supporting facts span {len(titles)} paragraphs, need 2"
        )
    paragraphs = [Paragraph(t, by_title[t]) for t in titles]
    return HotpotRecord(
        record_id=record_id,
        question=question,
        answer=answer,
        paragraphs=paragraphs,
        supporting_facts=facts,
        annotations=obj.get("annotations"),
    )


def load_hotpot(path: str) -> list[HotpotRecord]:
    data = load_json(path)
    if not isinstance(data, list):
        raise AnnotationError("expected a JSON array of records")
    return [parse_record(obj) for obj in data]


def _find_pivot(tokens: list[str]) -> tuple[int, int] | None:
    """Token range [start, end) of the relation phrase, or None."""
    cleaned = [t.strip(".,!?;:\"'()").lower() for t in tokens]
    for i, tok in enumerate(cleaned):
        if tok in _COPULAS:
            end = i + 1
            if end < len(tokens) and (
                cleaned[end] in _PARTICIPLES
                or (cleaned[end].endswith("ed") and len(cleaned[end]) > 3)
            ):
                end += 1
                if end < len(tokens) and cleaned[end] in _PARTICLES:
                    end += 1
            return i, end
        if i > 0 and (
            tok in _PLAIN_VERBS or (tok.endswith("ed") and len(tok) > 3)
        ):
            end = i + 1
            if end < len(tokens) and cleaned[end] in _PARTICLES:
                end += 1
            return i, end
    return None


def _extract_triple(sentence_index: int, text: str, offset: int) -> Triple | None:
    """Split one sentence at its first verb-like pivot.

    Spans are absolute positions in the assembled context, built from the
    sentence's own character offsets plus the given base offset.
    """
    matches = list(_WORD_RE.finditer(text))
    if len(matches) < 3:
        return None
    tokens = [m.group() for m in matches]
    pivot = _find_pivot(tokens)
    if pivot is None:
        return None
    start, end = pivot
    if start == 0 or end >= len(tokens):
        return None

    def span(tok_a: int, tok_b: int) -> Span:
        raw_start = matches[tok_a].start()
        raw_end = matches[tok_b].end()
        while raw_end > raw_start and text[raw_end - 1] in ".,!?;:\"'":
            raw_end -= 1
        return Span(sentence_index, offset + raw_start, offset + raw_end)

    subj = span(0, start - 1)
    rel = span(start, end - 1)
    obj = span(end, len(tokens) - 1)
    if subj.end <= subj.start or obj.end <= obj.start:
        return None
    return Triple(subject=subj, relation=rel, object=obj)


def fallback_annotate(record: HotpotRecord) -> AnnotatedContext:
    """Pattern-extracted annotation for records without a curated one.

    No coreference clusters and no entity spans are produced; downstream
    named-entity detection falls back to the capitalization heuristic.
    """
    sentences: list[Sentence] = []
    triples: list[Triple] = []
    parts: list[str] = []
    cursor = 0
    index = 0
    for paragraph in record.paragraphs:
        for raw in paragraph.sentences:
            text = collapse(raw)
            if not text:
                continue
            if parts:
                cursor += 1  # the joining space
            sentences.append(Sentence(index, cursor, cursor + len(text), text))
            triple = _extract_triple(index, text, cursor)
            if triple is not None:
                triples.append(triple)
            parts.append(text)
            cursor += len(text)
            index += 1
    context = " ".join(parts)
    annotated = AnnotatedContext(
        context=context,
        sentences=sentences,
        triples=triples,
        coref_clusters=[],
        named_entities=None,
    )
    annotated.validate()
    return annotated


def record_context(record: HotpotRecord) -> AnnotatedContext:
    """The record's curated annotation when present, else the fallback."""
    if record.annotations is not None:
        ctx = AnnotatedContext.from_json(record.annotations)
        ctx.validate()
        return ctx
    return fallback_annotate(record)
