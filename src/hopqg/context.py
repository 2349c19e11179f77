"""Annotated context: raw text plus sentence, triple, coreference and NE spans.

The JSON schema consumed here is the output contract of upstream open
information extraction and coreference tooling; this package never runs
those models itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AnnotationError


class Span(NamedTuple):
    """A character span inside one sentence; offsets index the full context string."""

    sent: int
    start: int
    end: int

    def to_json(self) -> dict:
        return {"sent": self.sent, "start": self.start, "end": self.end}

    @staticmethod
    def from_json(obj: dict) -> "Span":
        try:
            return Span(int(obj["sent"]), int(obj["start"]), int(obj["end"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotationError(f"bad span object {obj!r}") from exc


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
        for i, s in enumerate(doc.get("sentences", [])):
            try:
                start, end = int(s["start"]), int(s["end"])
            except (KeyError, TypeError, ValueError) as exc:
                raise AnnotationError(f"sentence {i}: expected start/end offsets") from exc
            sentences.append(Sentence(i, start, end, text[start:end]))
        triples = []
        for i, t in enumerate(doc.get("triples", [])):
            try:
                triples.append(
                    Triple(Span.from_json(t["subject"]), Span.from_json(t["relation"]), Span.from_json(t["object"]))
                )
            except (KeyError, TypeError) as exc:
                raise AnnotationError(f"triple {i}: expected subject/relation/object spans") from exc
        clusters = [tuple(Span.from_json(m) for m in cluster) for cluster in doc.get("coref_clusters", [])]
        nes = None
        if "named_entities" in doc:
            nes = [Span.from_json(m) for m in doc["named_entities"]]
        return AnnotatedContext(text, sentences, triples, clusters, nes)
