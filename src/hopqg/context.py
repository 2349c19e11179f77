"""Annotated context: raw text plus sentence, triple, coreference and NE spans.

The JSON schema consumed here is the output contract of upstream open
information extraction and coreference tooling; this package never runs
those models itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AnnotationError, is_integral, json_kind


class Span(NamedTuple):
    """A character span inside one sentence; offsets index the full context string."""

    sent: int
    start: int
    end: int

    def to_json(self) -> dict:
        return {"sent": self.sent, "start": self.start, "end": self.end}

    @staticmethod
    def from_json(obj: dict, item: str, index: int) -> "Span":
        """The span obj holds; an error names the item as ``item % index``."""
        try:
            sent, start, end = obj["sent"], obj["start"], obj["end"]
        except (KeyError, TypeError) as exc:
            raise AnnotationError(f"{item % index}: bad span object {obj!r}") from exc
        if type(sent) is int and type(start) is int and type(end) is int:
            return tuple.__new__(Span, (sent, start, end))
        return Span(*_offsets(item, index, sent=sent, start=start, end=end))


def _offsets(item: str, index: int, **offsets) -> list[int]:
    """Each offset as an int. An offset is an integral JSON number: 3 or 3.0,
    never 3.5, true or "3". An error names the item as ``item % index``."""
    for key, value in offsets.items():
        if not is_integral(value):
            raise AnnotationError(f"{item % index}: {key!r} must be an integer, got {json_kind(value)}")
    return [int(value) for value in offsets.values()]


def _array(value, what: str) -> list:
    if type(value) is not list:
        raise AnnotationError(f"{what} must be an array, got {json_kind(value)}")
    return value


@dataclass(frozen=True)
class Sentence:
    index: int
    char_start: int
    char_end: int
    text: str


@dataclass(frozen=True)
class Triple:
    """One extracted <subject, relation, object> with provenance spans."""

    subject: Span
    relation: Span
    object: Span

    @property
    def sentence_index(self) -> int:
        return self.subject.sent


@dataclass
class AnnotatedContext:
    """Checked once, when made: every way of building one validates it."""

    context: str
    sentences: list[Sentence]
    triples: list[Triple]
    coref_clusters: list[tuple[Span, ...]] = field(default_factory=list)
    named_entities: list[Span] | None = None

    def __post_init__(self) -> None:
        self.validate()

    def span_text(self, span: Span) -> str:
        return self.context[span.start : span.end]

    def validate(self) -> None:
        """Check all offsets; raises AnnotationError naming the offending item."""
        n = len(self.context)
        prev_end = 0
        for s in self.sentences:
            if not (0 <= s.char_start < s.char_end <= n):
                raise AnnotationError(f"sentence {s.index} out of bounds")
            if s.char_start < prev_end:
                raise AnnotationError(f"sentence {s.index} overlaps previous sentence")
            prev_end = s.char_end
        for t_idx, t in enumerate(self.triples):
            sents = {t.subject.sent, t.relation.sent, t.object.sent}
            if len(sents) != 1:
                raise AnnotationError(f"triple {t_idx} spans multiple sentences")
            for role, sp in (("subject", t.subject), ("relation", t.relation), ("object", t.object)):
                self._check_span(sp, f"triple {t_idx} {role}")
        for c_idx, cluster in enumerate(self.coref_clusters):
            if len(cluster) < 2:
                raise AnnotationError(f"coref cluster {c_idx} has fewer than two mentions")
            for sp in cluster:
                self._check_span(sp, f"coref cluster {c_idx} mention")
        for e_idx, sp in enumerate(self.named_entities or []):
            self._check_span(sp, f"named entity {e_idx}")

    def _check_span(self, sp: Span, what: str) -> None:
        if sp.sent < 0 or sp.sent >= len(self.sentences):
            raise AnnotationError(f"{what}: sentence index {sp.sent} out of range")
        sent = self.sentences[sp.sent]
        if not (sent.char_start <= sp.start < sp.end <= sent.char_end):
            raise AnnotationError(f"{what}: span [{sp.start},{sp.end}) outside its sentence")

    @staticmethod
    def from_json(doc: dict) -> "AnnotatedContext":
        if not isinstance(doc, dict) or "context" not in doc:
            raise AnnotationError("annotated context must be an object with a 'context' field")
        text = doc["context"]
        if not isinstance(text, str):
            raise AnnotationError(f"'context' field must be a string, got {type(text).__name__}")
        sentences = []
        for i, s in enumerate(_array(doc.get("sentences", []), "'sentences'")):
            try:
                start, end = s["start"], s["end"]
            except (KeyError, TypeError) as exc:
                raise AnnotationError(f"sentence {i}: expected start/end offsets") from exc
            if type(start) is not int or type(end) is not int:
                start, end = _offsets("sentence %d", i, start=start, end=end)
            sentences.append(Sentence(i, start, end, text[start:end]))
        triples = []
        for i, t in enumerate(_array(doc.get("triples", []), "'triples'")):
            try:
                subject, relation, obj = t["subject"], t["relation"], t["object"]
            except (KeyError, TypeError) as exc:
                raise AnnotationError(f"triple {i}: expected subject/relation/object spans") from exc
            triples.append(Triple(
                Span.from_json(subject, "triple %d subject", i),
                Span.from_json(relation, "triple %d relation", i),
                Span.from_json(obj, "triple %d object", i),
            ))
        clusters = [
            tuple(Span.from_json(m, "coref cluster %d mention", c) for m in _array(cluster, f"coref cluster {c}"))
            for c, cluster in enumerate(_array(doc.get("coref_clusters", []), "'coref_clusters'"))
        ]
        nes = None
        if "named_entities" in doc:
            nes = [
                Span.from_json(m, "named entity %d", k)
                for k, m in enumerate(_array(doc["named_entities"], "'named_entities'"))
            ]
        return AnnotatedContext(text, sentences, triples, clusters, nes)
