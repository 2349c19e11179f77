"""Two-hop QA record loading plus a pattern-based fallback annotator.

Records follow the HotpotQA distribution schema. Each record may carry an
optional "annotations" field holding a full annotated-context document for
its two consumed paragraphs; records without one get a lower-fidelity
pattern-extracted annotation so the rest of the pipeline still runs.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .context import AnnotatedContext, Sentence, Span, Triple
from .errors import AnnotationError, is_integral, read_records
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


class Paragraph(NamedTuple):
    title: str
    sentences: list[str]


class HotpotRecord(NamedTuple):
    record_id: str
    question: str
    answer: str
    paragraphs: list[Paragraph]
    supporting_facts: list[tuple[str, int]]
    annotations: dict | None = None


def _is_pair(value, first: type, second: type | tuple[type, ...]) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and isinstance(value[0], first)
        and isinstance(value[1], second)
    )


def parse_record(obj: dict) -> HotpotRecord:
    """Validate one distribution-schema dict and resolve its two paragraphs.

    The paragraphs the pipeline consumes are the ones named by supporting
    facts, kept in first-mention order; there must be exactly two. An error
    names no place: read_records adds where the record sits.
    """
    try:
        record_id = str(obj["_id"])
        question = obj["question"]
        answer = obj["answer"]
        raw_context = obj["context"]
        raw_facts = obj["supporting_facts"]
    except KeyError as exc:
        raise AnnotationError(f"missing field {exc}") from exc
    if not isinstance(question, str) or not question.strip():
        raise AnnotationError("empty question")
    if not isinstance(answer, str):
        raise AnnotationError("answer must be a string")
    if not isinstance(raw_context, list) or not all(
        _is_pair(entry, str, list) and all(isinstance(s, str) for s in entry[1])
        for entry in raw_context
    ):
        raise AnnotationError("context must be a list of [title, [sentences]] pairs")
    if not isinstance(raw_facts, list) or not all(
        _is_pair(f, str, object) and is_integral(f[1]) for f in raw_facts
    ):
        raise AnnotationError("supporting_facts must be a list of [title, index] pairs")
    by_title = {title: sentences for title, sentences in raw_context}
    facts: list[tuple[str, int]] = []
    titles: list[str] = []
    for title, idx in raw_facts:
        if title not in by_title:
            raise AnnotationError(f"supporting fact names unknown paragraph {title!r}")
        if not 0 <= idx < len(by_title[title]):
            raise AnnotationError(f"supporting fact ({title!r}, {idx}) out of range")
        facts.append((title, int(idx)))
        if title not in titles:
            titles.append(title)
    if len(titles) != 2:
        raise AnnotationError(f"supporting facts span {len(titles)} paragraphs, need 2")
    paragraphs = [Paragraph(t, by_title[t]) for t in titles]
    return HotpotRecord(
        record_id=record_id,
        question=question,
        answer=answer,
        paragraphs=paragraphs,
        supporting_facts=facts,
        annotations=obj.get("annotations"),
    )


def load_hotpot(path: str, text: str) -> list[HotpotRecord]:
    """The records of the file path, given its text, each checked by parse_record."""
    return read_records(path, text, "record", parse_record)


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
        return tuple.__new__(Span, (sentence_index, offset + raw_start, offset + raw_end))

    subj = span(0, start - 1)
    rel = span(start, end - 1)
    obj = span(end, len(tokens) - 1)
    if subj.end <= subj.start or obj.end <= obj.start:
        return None
    return tuple.__new__(Triple, (subj, rel, obj))


def fallback_annotate(record: HotpotRecord) -> AnnotatedContext:
    """Pattern-extracted annotation for records without a curated one.

    No coreference clusters and no entity spans are produced; downstream
    named-entity detection falls back to the capitalization heuristic.
    """
    new = tuple.__new__
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
            sentences.append(new(Sentence, (index, cursor, cursor + len(text), text)))
            triple = _extract_triple(index, text, cursor)
            if triple is not None:
                triples.append(triple)
            parts.append(text)
            cursor += len(text)
            index += 1
    return AnnotatedContext(
        context=" ".join(parts),
        sentences=sentences,
        triples=triples,
        coref_clusters=[],
        named_entities=None,
    )


def record_context(record: HotpotRecord) -> AnnotatedContext:
    """The record's curated annotation when present, else the fallback."""
    if record.annotations is not None:
        return AnnotatedContext.from_json(record.annotations)
    return fallback_annotate(record)
