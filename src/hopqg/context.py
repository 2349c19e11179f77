"""Annotated context: raw text plus sentence, triple, coreference and NE spans.

The JSON schema consumed here is the output contract of upstream open
information extraction and coreference tooling; this package never runs
those models itself.
"""

from __future__ import annotations

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
        """The span obj holds; an error names the item as ``item % index``.
        AnnotatedContext.from_json and _spans call it only for a span that
        is not three int offsets, to convert the offsets or name the span."""
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


def _spans(objs: list, item: str, index: int | None = None) -> list[Span]:
    """The Span of each object of objs, made in this loop when its offsets
    are three ints. Any other goes through Span.from_json, which converts
    it or names it as ``item % index``, or as ``item % k`` for the k-th
    object when index is None."""
    new = tuple.__new__
    spans = []
    for k, obj in enumerate(objs):
        try:
            sent, start, end = obj["sent"], obj["start"], obj["end"]
            if type(sent) is type(start) is type(end) is int:
                spans.append(new(Span, (sent, start, end)))
                continue
        except (KeyError, TypeError):
            pass
        spans.append(Span.from_json(obj, item, k if index is None else index))
    return spans


class Sentence(NamedTuple):
    index: int
    char_start: int
    char_end: int
    text: str


class Triple(NamedTuple):
    """One extracted <subject, relation, object> with provenance spans."""

    subject: Span
    relation: Span
    object: Span


_ROLES = ("subject", "relation", "object")


def _span_fault(span: Span, bounds: list[tuple[int, int]]) -> str:
    """Why span lies outside its sentence of bounds, or "" if it does not."""
    sent, start, end = span
    if not 0 <= sent < len(bounds):
        return f"sentence index {sent} out of range"
    lo, hi = bounds[sent]
    if not lo <= start < end <= hi:
        return f"span [{start},{end}) outside its sentence"
    return ""


class AnnotatedContext:
    """Checked once, when made: every way of building one validates it."""

    def __init__(
        self,
        context: str,
        sentences: list[Sentence],
        triples: list[Triple],
        coref_clusters: list[tuple[Span, ...]] | None = None,
        named_entities: list[Span] | None = None,
    ) -> None:
        self.context = context
        self.sentences = sentences
        self.triples = triples
        self.coref_clusters = [] if coref_clusters is None else coref_clusters
        self.named_entities = named_entities
        self.validate()

    def validate(self) -> None:
        """Check all offsets; raises AnnotationError naming the offending item.

        A message is built only once a check has failed."""
        n = len(self.context)
        bounds: list[tuple[int, int]] = []  # (char_start, char_end) per sentence
        prev_end = 0
        for index, start, end, _ in self.sentences:
            if not (0 <= start < end <= n):
                raise AnnotationError(f"sentence {index} out of bounds")
            if start < prev_end:
                raise AnnotationError(f"sentence {index} overlaps previous sentence")
            prev_end = end
            bounds.append((start, end))
        count = len(bounds)
        for t_idx, triple in enumerate(self.triples):
            (sent, s1, e1), (sent2, s2, e2), (sent3, s3, e3) = triple
            if sent2 != sent or sent3 != sent:
                raise AnnotationError(f"triple {t_idx} spans multiple sentences")
            if 0 <= sent < count:
                lo, hi = bounds[sent]
                if lo <= s1 < e1 <= hi and lo <= s2 < e2 <= hi and lo <= s3 < e3 <= hi:
                    continue
            # The check above failed, so a role is at fault: name the first.
            role, fault = [(role, f) for role, sp in zip(_ROLES, triple) if (f := _span_fault(sp, bounds))][0]
            raise AnnotationError(f"triple {t_idx} {role}: {fault}")
        for c_idx, cluster in enumerate(self.coref_clusters):
            if len(cluster) < 2:
                raise AnnotationError(f"coref cluster {c_idx} has fewer than two mentions")
            for sp in cluster:
                sent, start, end = sp
                if 0 <= sent < count:
                    lo, hi = bounds[sent]
                    if lo <= start < end <= hi:
                        continue
                raise AnnotationError(f"coref cluster {c_idx} mention: {_span_fault(sp, bounds)}")
        for e_idx, sp in enumerate(self.named_entities or []):
            sent, start, end = sp
            if 0 <= sent < count:
                lo, hi = bounds[sent]
                if lo <= start < end <= hi:
                    continue
            raise AnnotationError(f"named entity {e_idx}: {_span_fault(sp, bounds)}")

    @staticmethod
    def from_json(doc: dict) -> "AnnotatedContext":
        if not isinstance(doc, dict) or "context" not in doc:
            raise AnnotationError("annotated context must be an object with a 'context' field")
        text = doc["context"]
        if not isinstance(text, str):
            raise AnnotationError(f"'context' field must be a string, got {json_kind(text)}")
        new = tuple.__new__
        sentences = []
        for i, s in enumerate(_array(doc.get("sentences", []), "'sentences'")):
            try:
                start, end = s["start"], s["end"]
            except (KeyError, TypeError) as exc:
                raise AnnotationError(f"sentence {i}: expected start/end offsets") from exc
            if type(start) is not int or type(end) is not int:
                start, end = _offsets("sentence %d", i, start=start, end=end)
            sentences.append(new(Sentence, (i, start, end, text[start:end])))
        triples = []
        for i, t in enumerate(_array(doc.get("triples", []), "'triples'")):
            try:
                subject, relation, obj = t["subject"], t["relation"], t["object"]
            except (KeyError, TypeError) as exc:
                raise AnnotationError(f"triple {i}: expected subject/relation/object spans") from exc
            # The spans are made here when all nine offsets are ints, as in
            # _spans, and otherwise by Span.from_json.
            try:
                s0, s1, s2 = subject["sent"], subject["start"], subject["end"]
                r0, r1, r2 = relation["sent"], relation["start"], relation["end"]
                o0, o1, o2 = obj["sent"], obj["start"], obj["end"]
                if (type(s0) is type(s1) is type(s2) is type(r0) is type(r1) is type(r2)
                        is type(o0) is type(o1) is type(o2) is int):
                    triples.append(new(Triple, (
                        new(Span, (s0, s1, s2)), new(Span, (r0, r1, r2)), new(Span, (o0, o1, o2))
                    )))
                    continue
            except (KeyError, TypeError):
                pass
            triples.append(new(Triple, (
                Span.from_json(subject, "triple %d subject", i),
                Span.from_json(relation, "triple %d relation", i),
                Span.from_json(obj, "triple %d object", i),
            )))
        clusters = [
            tuple(_spans(_array(cluster, f"coref cluster {c}"), "coref cluster %d mention", c))
            for c, cluster in enumerate(_array(doc.get("coref_clusters", []), "'coref_clusters'"))
        ]
        nes = None
        if "named_entities" in doc:
            nes = _spans(_array(doc["named_entities"], "'named_entities'"), "named entity %d")
        return AnnotatedContext(text, sentences, triples, clusters, nes)
