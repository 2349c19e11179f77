"""Shared fixture builders: readable sentence/triple specs -> annotated JSON."""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from http.server import ThreadingHTTPServer

from hopqg.context import AnnotatedContext
from hopqg.dataset_builder import BackendSuite, RuleDecomposer, RuleQa, RuleTypeClassifier
from hopqg.graph import build_context_graph
from hopqg.pipeline import QuestionTrace, generate_stepwise
from hopqg.planner import plan_chain


def _find_span(context: str, sent_bounds: list[tuple[int, int]], sent: int, text: str) -> dict:
    start, end = sent_bounds[sent]
    pos = context.index(text, start, end)
    return {"sent": sent, "start": pos, "end": pos + len(text)}


def make_context_doc(
    sentences: list[str],
    triples: list[tuple[int, str, str, str]],
    coref: list[list[tuple[int, str]]] = (),
    named_entities: list[tuple[int, str]] | None = None,
) -> dict:
    """Build AnnotatedContext JSON; spans located by substring search.

    triples: (sentence_index, subject_text, relation_text, object_text)
    coref/named_entities: (sentence_index, mention_text)
    """
    context = " ".join(sentences)
    bounds = []
    cursor = 0
    for s in sentences:
        start = context.index(s, cursor)
        bounds.append((start, start + len(s)))
        cursor = start + len(s)
    doc = {
        "context": context,
        "sentences": [{"start": a, "end": b} for a, b in bounds],
        "triples": [
            {
                "subject": _find_span(context, bounds, sent, subj),
                "relation": _find_span(context, bounds, sent, rel),
                "object": _find_span(context, bounds, sent, obj),
            }
            for sent, subj, rel, obj in triples
        ],
        "coref_clusters": [
            [_find_span(context, bounds, sent, text) for sent, text in cluster] for cluster in coref
        ],
    }
    if named_entities is not None:
        doc["named_entities"] = [_find_span(context, bounds, sent, text) for sent, text in named_entities]
    return doc


def make_context(*args, **kwargs) -> AnnotatedContext:
    return AnnotatedContext.from_json(make_context_doc(*args, **kwargs))


def generate_for_context(
    ctx: AnnotatedContext,
    d: int,
    seed: int,
    backend,
    answer_text: str | None = None,
    category_overrides: dict[str, str] | None = None,
) -> QuestionTrace:
    """One question on a fresh context graph: the per-seed reference for
    `generate`, which shares one graph across a context's seeds."""
    graph = build_context_graph(ctx)
    chain = plan_chain(graph, d, seed=seed, answer_text=answer_text)
    return generate_stepwise(graph, chain, backend, category_overrides)


def rule_suite() -> BackendSuite:
    """The rule stand-ins of all three dataset-construction services."""
    return BackendSuite(RuleTypeClassifier(), RuleDecomposer(), RuleQa())


# The film-star fixture: answer Tom Cruise, bridge hop through Top Gun.
FILM_SENTENCES = [
    "Top Gun is directed by Tony Scott.",
    "Top Gun is a 1986 action film.",
    "Top Gun starred Tom Cruise.",
    "Tom Cruise is an American actor.",
]
FILM_TRIPLES = [
    (0, "Top Gun", "is directed by", "Tony Scott"),
    (1, "Top Gun", "is", "a 1986 action film"),
    (2, "Top Gun", "starred", "Tom Cruise"),
    (3, "Tom Cruise", "is", "an American actor"),
]
FILM_NES = [(0, "Top Gun"), (0, "Tony Scott"), (2, "Tom Cruise")]


def film_context_doc() -> dict:
    return make_context_doc(FILM_SENTENCES, FILM_TRIPLES, named_entities=FILM_NES)


def marked_film_context_doc() -> dict:
    """The film fixture with the reserved marker <edge> in the sentence of
    step 2 of its d=2 chain to Tom Cruise."""
    sentences = [FILM_SENTENCES[0].replace(".", " <edge>."), *FILM_SENTENCES[1:]]
    return make_context_doc(sentences, FILM_TRIPLES, named_entities=FILM_NES)


# Same story with a fourth hop and sentence order forcing a linear d=3 chain.
FILM3_SENTENCES = [
    "Tony Scott was born in North Shields.",
    "Top Gun is directed by Tony Scott.",
    "Top Gun starred Tom Cruise.",
    "Top Gun is a 1986 action film.",
    "Tom Cruise is an American actor.",
]
FILM3_TRIPLES = [
    (0, "Tony Scott", "was born in", "North Shields"),
    (1, "Top Gun", "is directed by", "Tony Scott"),
    (2, "Top Gun", "starred", "Tom Cruise"),
    (3, "Top Gun", "is", "a 1986 action film"),
    (4, "Tom Cruise", "is", "an American actor"),
]
FILM3_NES = [(0, "Tony Scott"), (0, "North Shields"), (1, "Top Gun"), (2, "Tom Cruise")]


def film3_context_doc() -> dict:
    return make_context_doc(FILM3_SENTENCES, FILM3_TRIPLES, named_entities=FILM3_NES)


# A star around one answer node: three spokes, three sentences. With this
# shape every rewrite is an Intersection and all spoke surfaces survive.
STAR_SENTENCES = [
    "Marie Dubois composed Silver Lake.",
    "Marie Dubois founded the Lyon Conservatory.",
    "Marie Dubois taught Anna Keller.",
]
STAR_TRIPLES = [
    (0, "Marie Dubois", "composed", "Silver Lake"),
    (1, "Marie Dubois", "founded", "the Lyon Conservatory"),
    (2, "Marie Dubois", "taught", "Anna Keller"),
]
STAR_NES = [(0, "Marie Dubois"), (0, "Silver Lake"), (1, "the Lyon Conservatory"), (2, "Anna Keller")]


def star_context_doc() -> dict:
    return make_context_doc(STAR_SENTENCES, STAR_TRIPLES, named_entities=STAR_NES)


# Coreference fixture: "It" merges into "A Perfect Murder".
REMAKE_SENTENCES = [
    "A Perfect Murder is a 1998 American crime film.",
    "It was a modern remake of Dial M for Murder.",
]
REMAKE_TRIPLES = [
    (0, "A Perfect Murder", "is", "a 1998 American crime film"),
    (1, "It", "was a modern remake of", "Dial M for Murder"),
]
REMAKE_COREF = [[(0, "A Perfect Murder"), (1, "It")]]
REMAKE_NES = [(0, "A Perfect Murder"), (1, "Dial M for Murder")]


def remake_context_doc() -> dict:
    return make_context_doc(REMAKE_SENTENCES, REMAKE_TRIPLES, coref=REMAKE_COREF, named_entities=REMAKE_NES)


def hotpot_record_doc(
    record_id: str,
    question: str,
    answer: str,
    paragraphs: list[tuple[str, list[str]]],
    facts: list[tuple[str, int]],
    annotations: dict | None = None,
    qtype: str | None = None,
    level: str = "medium",
) -> dict:
    doc = {
        "_id": record_id,
        "question": question,
        "answer": answer,
        "context": [[title, list(sents)] for title, sents in paragraphs],
        "supporting_facts": [[title, idx] for title, idx in facts],
        "level": level,
    }
    if qtype is not None:
        doc["type"] = qtype
    if annotations is not None:
        doc["annotations"] = annotations
    return doc


# The remake record: a Bridge question whose sub-questions and answers are
# recoverable by the rule backends. Context paragraphs are deliberately in
# the opposite order from the supporting facts to exercise consumed-order
# resolution.
REMAKE_RECORD_SENTENCES = [
    "A Perfect Murder is a 1998 American crime film.",
    "It is a modern remake of the film Dial M for Murder.",
    "Dial M for Murder was directed by Alfred Hitchcock.",
]
REMAKE_RECORD_TRIPLES = [
    (0, "A Perfect Murder", "is", "a 1998 American crime film"),
    (1, "It", "is a modern remake of", "Dial M for Murder"),
    (2, "Dial M for Murder", "was directed by", "Alfred Hitchcock"),
]
REMAKE_RECORD_COREF = [[(0, "A Perfect Murder"), (1, "It")]]
REMAKE_RECORD_NES = [
    (0, "A Perfect Murder"),
    (1, "Dial M for Murder"),
    (2, "Dial M for Murder"),
    (2, "Alfred Hitchcock"),
]


def remake_record_doc() -> dict:
    annotations = make_context_doc(
        REMAKE_RECORD_SENTENCES,
        REMAKE_RECORD_TRIPLES,
        coref=REMAKE_RECORD_COREF,
        named_entities=REMAKE_RECORD_NES,
    )
    return hotpot_record_doc(
        "remake-1",
        "Who directed the film to which A Perfect Murder was a modern remake?",
        "Alfred Hitchcock",
        paragraphs=[
            ("Dial M for Murder", ["Dial M for Murder was directed by Alfred Hitchcock."]),
            (
                "A Perfect Murder",
                [
                    "A Perfect Murder is a 1998 American crime film.",
                    "It is a modern remake of the film Dial M for Murder.",
                ],
            ),
        ],
        facts=[("A Perfect Murder", 1), ("Dial M for Murder", 0)],
        annotations=annotations,
        qtype="bridge",
    )


def comparison_record_doc() -> dict:
    return hotpot_record_doc(
        "compare-1",
        "Which film is longer, Sunset Years or The Long Road?",
        "The Long Road",
        paragraphs=[
            ("Sunset Years", ["Sunset Years is a 1990 drama film.", "Sunset Years runs 98 minutes."]),
            ("The Long Road", ["The Long Road is a 2001 drama film.", "The Long Road runs 124 minutes."]),
        ],
        facts=[("Sunset Years", 1), ("The Long Road", 1)],
        qtype="comparison",
    )


PRIZE_RECORD_SENTENCES = [
    "Heat Wave is a 1995 thriller film.",
    "Victor Reyes starred in Heat Wave.",
    "The Marlowe Prize is awarded annually for screen acting.",
    "Victor Reyes won the Marlowe Prize in 1996.",
]
PRIZE_RECORD_TRIPLES = [
    (0, "Heat Wave", "is", "a 1995 thriller film"),
    (1, "Victor Reyes", "starred in", "Heat Wave"),
    (2, "The Marlowe Prize", "is awarded annually for", "screen acting"),
    (3, "Victor Reyes", "won", "the Marlowe Prize"),
]
PRIZE_RECORD_NES = [
    (0, "Heat Wave"),
    (1, "Victor Reyes"),
    (1, "Heat Wave"),
    (2, "The Marlowe Prize"),
    (3, "Victor Reyes"),
]


def prize_record_doc() -> dict:
    annotations = make_context_doc(
        PRIZE_RECORD_SENTENCES, PRIZE_RECORD_TRIPLES, named_entities=PRIZE_RECORD_NES
    )
    return hotpot_record_doc(
        "prize-1",
        "Who starred in Heat Wave and won the Marlowe Prize?",
        "Victor Reyes",
        paragraphs=[
            ("Heat Wave", ["Heat Wave is a 1995 thriller film.", "Victor Reyes starred in Heat Wave."]),
            (
                "Marlowe Prize",
                [
                    "The Marlowe Prize is awarded annually for screen acting.",
                    "Victor Reyes won the Marlowe Prize in 1996.",
                ],
            ),
        ],
        facts=[("Heat Wave", 1), ("Marlowe Prize", 1)],
        annotations=annotations,
        qtype="bridge",
    )


def novel_record_doc() -> dict:
    """Bridge record with no curated annotations: exercises the fallback extractor."""
    return hotpot_record_doc(
        "novel-1",
        "Who wrote the novel which inspired the film Ocean Letters?",
        "Nora Hale",
        paragraphs=[
            ("Ocean Letters", ["The film Ocean Letters was inspired by Sea Post."]),
            ("Sea Post", ["Nora Hale wrote Sea Post."]),
        ],
        facts=[("Ocean Letters", 0), ("Sea Post", 0)],
        qtype="bridge",
    )


# Few words, so that argument texts repeat across sentences (one group) and
# random runs of them nest and overlap.
_GRAPH_WORDS = ["Alder", "Birch", "Cedar", "Dune", "Elm", "Fjord", "it", "the", "river", "of", "was", "near"]


def random_context_doc(rng: random.Random) -> dict:
    """A small random context for graph-builder property tests."""
    sentences = [
        " ".join(rng.choice(_GRAPH_WORDS) for _ in range(rng.randint(5, 9))) + "."
        for _ in range(rng.randint(2, 6))
    ]
    words = [s[:-1].split() for s in sentences]

    def run(sent):
        a = rng.randrange(len(words[sent]))
        b = rng.randint(a + 1, min(len(words[sent]), a + 3))
        return sent, " ".join(words[sent][a:b])

    triples = []
    for sent in range(len(sentences)):
        for _ in range(rng.randint(1, 3)):
            triples.append((sent, run(sent)[1], run(sent)[1], run(sent)[1]))
    # Clusters draw their mentions from any sentence, so they cross sentences.
    coref = [
        [run(rng.randrange(len(sentences))) for _ in range(rng.randint(2, 4))]
        for _ in range(rng.randint(0, 4))
    ]
    nes = [run(sent) for sent in range(len(sentences)) for _ in range(rng.randint(0, 4))]
    return make_context_doc(sentences, triples, coref=coref, named_entities=nes)


class _StubServer(ThreadingHTTPServer):
    # Room for every test client to connect at once: past the default
    # backlog of 5, a dropped SYN waits out a one-second retransmit.
    request_queue_size = 64


@contextmanager
def serve_http(handler):
    """A ThreadingHTTPServer for handler on a free 127.0.0.1 port, served from
    a thread; yields (server, base URL)."""
    server = _StubServer(("127.0.0.1", 0), handler)
    # A short poll interval lets shutdown() return at once, not after 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
