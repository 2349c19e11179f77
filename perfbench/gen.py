"""Seeded input generators for the four workloads.

Every generator takes a ``random.Random`` built from the run's seed and
returns plain JSON documents plus the facts the checks need (the triples
written, each record's intended outcome). The program only ever sees the
files these documents are written to.
"""

from __future__ import annotations

import random
import re

# Syllables for invented names. None of them ends a word in "ed", "ing"
# or "s", so the rule backends' verb and stem heuristics never fire on a
# name, and none forms an English function word.
_SYLLABLES = (
    "ka", "lo", "vi", "ren", "dar", "mo", "sel", "tu", "bri", "nax", "quo",
    "zan", "fe", "lin", "gor", "pha", "ul", "tem", "ori", "va", "zel", "kor",
    "mi", "ta", "bel", "run", "si", "dov", "ar", "ne", "pol", "ix", "gan",
)
_BAD_ENDINGS = ("ed", "ing", "s", "ly")

PERSON, WORK, ORG, PLACE = "person", "work", "org", "place"

# (subject kind, object kind) -> relation texts, all lowercase, single-spaced.
RELATIONS = {
    (PERSON, PERSON): ("married", "taught", "was mentored by"),
    (PERSON, WORK): ("directed", "wrote", "starred in", "composed"),
    (WORK, PLACE): ("is set in", "was filmed in"),
    (PERSON, PLACE): ("was born in", "lives in"),
    (ORG, PLACE): ("is based in",),
    (PERSON, ORG): ("founded", "leads"),
    (ORG, WORK): ("produced", "released"),
    (WORK, WORK): ("is a sequel to",),
}
_GENRES = ("action", "drama", "crime", "war", "comedy", "horror", "musical")
_NOUNS = {WORK: ("film", "novel", "opera"), ORG: ("studio", "company", "label")}
_SUBJECT_PRONOUN = {PERSON: ("He", "She"), WORK: ("It",), ORG: ("It",), PLACE: ("It",)}
_POSSESSIVE = {PERSON: "his", WORK: "its", ORG: "its", PLACE: "its"}


def _word(rng: random.Random) -> str:
    while True:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if not w.endswith(_BAD_ENDINGS):
            return w.capitalize()


class NamePool:
    """Unique surfaces of which none is a substring of another and no two
    share a word (the rule QA backend sheds words the question already
    uses, so a shared word would cut an answer short)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._lower: list[str] = []
        self._words: set[str] = set()

    def add(self, text: str) -> bool:
        low = text.lower()
        words = set(low.split()) - {"port"}
        if words & self._words or any(low in other or other in low for other in self._lower):
            return False
        self._lower.append(low)
        self._words |= words
        return True

    def name(self, kind: str) -> str:
        while True:
            first, second = _word(self.rng), _word(self.rng)
            if kind == PLACE:
                text = f"Port {first}{second.lower()}"
            else:
                text = f"{first} {second}"
            if self.add(text):
                return text


class _ContextWriter:
    """Accumulates sentences and spans into the annotated-context schema."""

    def __init__(self):
        self.parts: list[str] = []
        self.cursor = 0
        self.sentences: list[dict] = []
        self.triples: list[dict] = []
        self.clusters: list[list[dict]] = []
        self.entities: list[dict] = []

    def sentence(self, pieces: list[tuple[str, str | None]]) -> dict[str, dict]:
        """Append one sentence made of (text, role) pieces; returns role -> span."""
        if self.parts:
            self.cursor += 1
        start = self.cursor
        index = len(self.sentences)
        spans: dict[str, dict] = {}
        text = ""
        for piece, role in pieces:
            if role is not None:
                spans[role] = {"sent": index, "start": start + len(text), "end": start + len(text) + len(piece)}
            text += piece
        self.parts.append(text)
        self.sentences.append({"start": start, "end": start + len(text)})
        self.cursor = start + len(text)
        return spans

    def doc(self) -> dict:
        return {
            "context": " ".join(self.parts),
            "sentences": self.sentences,
            "triples": self.triples,
            "coref_clusters": self.clusters,
            "named_entities": self.entities,
        }


def make_context(rng: random.Random, n_entities: int, extra_edges: float = 0.5):
    """One connected annotated context.

    Entities form a random recursive tree plus ``extra_edges * n`` chords,
    so every node reaches every other and any difficulty up to the tree
    size can be planned. About a fifth of the works and organisations also
    get a copular descriptor ("is a 1986 war film"), whose text may repeat
    across entities and so form hub nodes. Each subject-pronoun form is
    used at most once per context: the program keys triple arguments by
    their text, so a second "It" subject would merge two entities. Every
    twentieth sentence carries a possessive pronoun clustered with its subject.

    Returns (doc, triples) where triples is the set of
    (sentence index, subject surface, relation, object surface) written.
    """
    names = NamePool(rng)
    kinds = [rng.choice((PERSON, PERSON, WORK, ORG, PLACE)) for _ in range(n_entities)]
    surfaces = [names.name(k) for k in kinds]

    def relation(a: int, b: int) -> tuple[int, int, str]:
        ka, kb = kinds[a], kinds[b]
        if (ka, kb) in RELATIONS:
            return a, b, rng.choice(RELATIONS[(ka, kb)])
        if (kb, ka) in RELATIONS:
            return b, a, rng.choice(RELATIONS[(kb, ka)])
        return a, b, "is associated with"  # kinds with no relation of their own

    links = [relation(k, rng.randrange(k)) for k in range(1, n_entities)]
    for _ in range(int(extra_edges * n_entities)):
        a, b = rng.sample(range(n_entities), 2)
        links.append(relation(a, b))
    descriptors: list[tuple[int, str]] = []
    for e, kind in enumerate(kinds):
        if kind in _NOUNS and rng.random() < 0.2:
            year = rng.randint(1950, 2019)
            descriptors.append((e, f"a {year} {rng.choice(_GENRES)} {rng.choice(_NOUNS[kind])}"))
    events = [("link", x) for x in links] + [("desc", x) for x in descriptors]
    rng.shuffle(events)

    w = _ContextWriter()
    written: set[tuple[int, str, str, str]] = set()
    first_mention: dict[int, dict] = {}
    pronouns_left = {"He", "She", "It"}

    for kind, payload in events:
        if kind == "link":
            subj, obj, rel = payload
            obj_text = surfaces[obj]
        else:
            subj, obj_text = payload
            obj, rel = None, "is"
        subj_text = surfaces[subj]
        pron = next((p for p in _SUBJECT_PRONOUN[kinds[subj]] if p in pronouns_left), None)
        use_pronoun = subj in first_mention and pron is not None and rng.random() < 0.5
        pieces = [
            (pron if use_pronoun else subj_text, "subj"),
            (" ", None),
            (rel, "rel"),
            (" ", None),
            (obj_text, "obj"),
        ]
        possessive = not use_pronoun and len(w.sentences) % 20 == 19
        if possessive:
            pieces += [(" in ", None), (_POSSESSIVE[kinds[subj]], "poss"), (" early years", None)]
        pieces.append((".", None))
        spans = w.sentence(pieces)
        index = len(w.sentences) - 1
        w.triples.append({"subject": spans["subj"], "relation": spans["rel"], "object": spans["obj"]})
        written.add((index, subj_text, rel, obj_text))
        if use_pronoun:
            pronouns_left.discard(pron)
            w.clusters.append([first_mention[subj], spans["subj"]])
        elif subj not in first_mention:
            w.entities.append(spans["subj"])
            first_mention[subj] = spans["subj"]
        if possessive:
            w.clusters.append([spans["subj"], spans["poss"]])
        if obj is not None and obj not in first_mention:
            w.entities.append(spans["obj"])
            first_mention[obj] = spans["obj"]
    return w.doc(), written


# ------------------------------------------------------------ evaluate corpus

_WH = ("What", "Who", "Which place")
_CATEGORIES = ("one", "film", "city", "studio", "person", "novel", "label")
_FILLERS = ("the", "one", "that", "also", "is", "in", "film")
_ALL_RELATIONS = tuple(sorted({r for rels in RELATIONS.values() for r in rels}))


def _name_tokens(rng: random.Random, names: NamePool) -> str:
    text = names.name(rng.choice((PERSON, WORK, PLACE)))
    return f"{text} {rng.randint(2, 9)}" if rng.random() < 0.2 else text


def template_question(rng: random.Random, names: NamePool, d: int) -> str:
    """A question shaped like the template backend's output at difficulty d:
    an initial "Wh relation Name?" then d-1 rewrites. A Bridge rewrite
    replaces the newest name by a clause about the next one; an
    Intersection rewrite attaches one more restriction to it."""
    last = _name_tokens(rng, names)
    q = f"{rng.choice(_WH)} {rng.choice(_ALL_RELATIONS)} {last}?"
    for _ in range(d - 1):
        new = _name_tokens(rng, names)
        cat = rng.choice(_CATEGORIES)
        rel = rng.choice(_ALL_RELATIONS)
        copular = rel.split()[0] in ("is", "was")
        if rng.random() < 0.7:
            if rng.random() < 0.5:
                clause = f"the {cat} that {rel} {new}"
            elif copular:
                clause = f"the {cat} that {new} {rel}"
            else:
                clause = f"the {cat} that is {rel} by {new}"
            q = q.replace(last, clause, 1)
        elif rng.random() < 0.5:
            q = q.replace(last, f"{last} that also {rel} {new}", 1)
        else:
            q = q[:-1].rstrip() + f" and also {rel} {new}?"
        last = new
    return q


def _stem_variant(token: str) -> str | None:
    if token.endswith("ed") and len(token) > 4:
        return token[:-2] + "ing"
    if token.isalpha() and token.islower() and len(token) > 3 and not token.endswith("s"):
        return token + "s"
    return None


def perturb(rng: random.Random, question: str) -> str:
    """1-3 edits: token drop, adjacent swap, filler insertion or stem variant."""
    body = question[:-1].split()
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        i = rng.randrange(len(body))
        if kind == 0 and len(body) > 3:
            del body[i]
        elif kind == 1 and i + 1 < len(body):
            body[i], body[i + 1] = body[i + 1], body[i]
        elif kind == 2:
            body.insert(i, rng.choice(_FILLERS))
        else:
            variants = [k for k, t in enumerate(body) if _stem_variant(t)]
            if variants:
                k = rng.choice(variants)
                body[k] = _stem_variant(body[k])
    return " ".join(body) + "?"


# The METEOR-s alignment search of the program as of this benchmark's
# first version, reduced to counting the nodes it visits. It decides which
# seeded pairs have a search too long to keep (see run.py). It is frozen here, not imported, so that the corpus a
# seed gives does not change when the program's search changes.
_PUNCT_TOKEN = re.compile(r"([^\w\s])")
NODE_BUDGET = 100_000


def _tokens(text: str) -> list[str]:
    return _PUNCT_TOKEN.sub(r" \1 ", text.lower()).split()


def _stem(token: str) -> str:
    if len(token) > 4 and token.endswith("ing"):
        stem = token[:-3]
    elif len(token) > 3 and token.endswith("ed"):
        stem = token[:-2]
    else:
        if len(token) > 5 and token.endswith("sses"):
            return token[:-2]
        if len(token) > 3 and token.endswith("es") and not token.endswith("ses"):
            return token[:-2]
        if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
            return token[:-1]
        return token
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "aeious":
        stem = stem[:-1]
    return stem


def _chunks(matches: list[tuple[int, int]]) -> int:
    matches = sorted(matches)
    return sum(
        1 for k, (i, j) in enumerate(matches)
        if k == 0 or i != matches[k - 1][0] + 1 or j != matches[k - 1][1] + 1
    )


def search_nodes(hyp: str, ref: str, limit: int = NODE_BUDGET) -> int:
    """Nodes the exhaustive alignment search visits on this pair, counted
    up to limit + 1 (the program stops at NODE_BUDGET + 1)."""
    h, r = _tokens(hyp), _tokens(ref)
    hs, rs = [_stem(t) for t in h], [_stem(t) for t in r]
    compat = [
        [(j, 1 if h[i] == r[j] else 0) for j in range(len(r)) if h[i] == r[j] or hs[i] == rs[j]]
        for i in range(len(h))
    ]
    left = [0] * (len(h) + 1)
    for i in range(len(h) - 1, -1, -1):
        left[i] = left[i + 1] + (1 if compat[i] else 0)
    best = [(-1, -1, 0)]
    nodes = 0

    def run(i, used, matches, exact, total):
        nonlocal nodes
        if nodes > limit:
            return
        nodes += 1
        if i == len(h):
            key = (exact, total, -_chunks(matches))
            if key > best[0]:
                best[0] = key
            return
        if (exact + left[i], total + left[i], 0) < best[0]:
            return
        for j, is_exact in compat[i]:
            if j in used:
                continue
            used.add(j)
            matches.append((i, j))
            run(i + 1, used, matches, exact + is_exact, total + 1)
            matches.pop()
            used.remove(j)
        run(i + 1, used, matches, exact, total)

    run(0, set(), [], 0, 0)
    return nodes


# -------------------------------------------------------- two-hop records

_THRILLER_GENRES = ("thriller", "drama", "crime", "war", "comedy")


def _span_doc(sentences: list[str], triples, coref=(), entities=()) -> dict:
    """Annotated-context JSON; each mention is (sentence, text) and is located
    as the first occurrence of its text inside that sentence."""
    context = " ".join(sentences)
    bounds, cursor = [], 0
    for s in sentences:
        bounds.append((cursor, cursor + len(s)))
        cursor += len(s) + 1

    def span(sent: int, text: str) -> dict:
        start = context.index(text, bounds[sent][0], bounds[sent][1])
        return {"sent": sent, "start": start, "end": start + len(text)}

    return {
        "context": context,
        "sentences": [{"start": a, "end": b} for a, b in bounds],
        "triples": [
            {"subject": span(s, a), "relation": span(s, r), "object": span(s, b)} for s, a, r, b in triples
        ],
        "coref_clusters": [[span(s, t) for s, t in cluster] for cluster in coref],
        "named_entities": [span(s, t) for s, t in entities],
    }


def _record(rid, question, answer, paragraphs, facts, distractors, annotations=None, qtype=None):
    context = [[title, sents] for title, sents in paragraphs + distractors]
    doc = {
        "_id": rid,
        "question": question,
        "answer": answer,
        "context": context,
        "supporting_facts": [[t, i] for t, i in facts],
        "type": qtype,
        "level": "medium",
    }
    if annotations is not None:
        doc["annotations"] = annotations
    return doc


def make_record(rng: random.Random, rid: str, kind: str):
    """One two-hop record of a template whose outcome under the rule
    backends is known. Returns (doc, expected) where expected is
    {"outcome": "example"|"type-filtered", "answer", "bridge"}."""
    names = NamePool(rng)
    year = rng.randint(1950, 2019)
    distractors = []
    for _ in range(rng.randint(2, 3)):
        a, b = names.name(PERSON), names.name(WORK)
        distractors.append((b, [f"{b} is a {rng.randint(1950, 2019)} film.", f"{a} directed {b}."]))
    if kind == "bridge":
        a, b, c = names.name(WORK), names.name(WORK), names.name(PERSON)
        genre = rng.choice(_THRILLER_GENRES)
        sents = [f"{a} is a {year} American {genre} picture.", f"It is a modern remake of the film {b}.", f"{b} was directed by {c}."]
        ann = _span_doc(
            sents,
            [(0, a, "is", f"a {year} American {genre} picture"), (1, "It", "is a modern remake of", b), (2, b, "was directed by", c)],
            coref=[[(0, a), (1, "It")]],
            entities=[(0, a), (1, b), (2, b), (2, c)],
        )
        doc = _record(
            rid, f"Who directed the film to which {a} was a modern remake?", c,
            [(b, [sents[2]]), (a, sents[:2])], [(a, 1), (b, 0)], distractors, ann, "bridge",
        )
        return doc, {"outcome": "example", "answer": c, "bridge": b}
    if kind == "intersection":
        v, w, p = names.name(PERSON), names.name(WORK), names.name(WORK)
        prize = f"The {p.split()[0]} Prize"
        sents = [
            f"{w} is a {year} {rng.choice(_THRILLER_GENRES)} film.",
            f"{v} starred in {w}.",
            f"{prize} is awarded annually for screen acting.",
            f"{v} won the {p.split()[0]} Prize in {year + 1}.",
        ]
        won = f"the {p.split()[0]} Prize"
        ann = _span_doc(
            sents,
            [(0, w, "is", sents[0][len(w) + 4 : -1]), (1, v, "starred in", w),
             (2, prize, "is awarded annually for", "screen acting"), (3, v, "won", won)],
            entities=[(0, w), (1, v), (1, w), (2, prize), (3, v)],
        )
        doc = _record(
            rid, f"Who starred in {w} and won {won}?", v,
            [(w, sents[:2]), (prize, sents[2:])], [(w, 1), (prize, 1)], distractors, ann, "bridge",
        )
        return doc, {"outcome": "example", "answer": v, "bridge": w}
    if kind == "fallback":
        o, s, n = names.name(WORK), names.name(WORK), names.name(PERSON)
        doc = _record(
            rid, f"Who wrote the novel which inspired the film {o}?", n,
            [(o, [f"The film {o} was inspired by {s}."]), (s, [f"{n} wrote {s}."])],
            [(o, 0), (s, 0)], distractors, None, "bridge",
        )
        return doc, {"outcome": "example", "answer": n, "bridge": s}
    x, y = names.name(WORK), names.name(WORK)
    lx, ly = rng.sample(range(80, 180), 2)
    doc = _record(
        rid, f"Which film is longer, {x} or {y}?", x if lx > ly else y,
        [(x, [f"{x} is a {year} drama film.", f"{x} runs {lx} minutes."]),
         (y, [f"{y} is a {year + 1} drama film.", f"{y} runs {ly} minutes."])],
        [(x, 1), (y, 1)], distractors, None, "comparison",
    )
    return doc, {"outcome": "type-filtered"}


RECORD_KINDS = ("bridge", "intersection", "fallback", "comparison")


def make_records(rng: random.Random, count: int):
    """count records cycling through the four templates, in shuffled order."""
    kinds = [RECORD_KINDS[k % len(RECORD_KINDS)] for k in range(count)]
    rng.shuffle(kinds)
    docs, expected = [], {}
    for k, kind in enumerate(kinds):
        doc, want = make_record(rng, f"r{k}", kind)
        docs.append(doc)
        expected[doc["_id"]] = want
    return docs, expected
