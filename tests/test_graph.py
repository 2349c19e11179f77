import hashlib
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from hopqg.context import AnnotatedContext, Sentence, Span, Triple
from hopqg.errors import AnnotationError, NodeNotFoundError
from hopqg.geninput import GeneratorInput
from hopqg.graph import Node, build_context_graph
from hopqg.planner import EdgeDirection, RewriteType

from oracles import oracle_graph_merges, span_text
from util import (
    film3_context_doc,
    film_context_doc,
    make_context,
    make_context_doc,
    random_context_doc,
    remake_context_doc,
    star_context_doc,
)


def surfaces(graph):
    return {n.surface for n in graph.nodes}


def degree(graph, node_id):
    """Distinct neighbors when edge direction is ignored."""
    return len({other for _, other in graph.incident(node_id)})


def test_film_graph_nodes_and_edges(film_graph):
    assert surfaces(film_graph) == {
        "Top Gun", "Tony Scott", "a 1986 action film", "Tom Cruise", "an American actor",
    }
    assert len(film_graph.edges) == 4
    top_gun = film_graph.find_node("Top Gun")
    tom = film_graph.find_node("Tom Cruise")
    assert degree(film_graph, top_gun.id) == 3
    assert degree(film_graph, tom.id) == 2
    assert top_gun.is_named_entity and tom.is_named_entity
    assert not film_graph.find_node("a 1986 action film").is_named_entity


def test_edge_provenance_matches_sentence(film_graph):
    ctx = film_graph.context
    for e in film_graph.edges:
        sent = ctx.sentences[e.sentence_index].text
        assert e.relation in sent


def test_coref_merge_absorbs_pronoun(remake_ctx):
    g = build_context_graph(remake_ctx)
    assert surfaces(g) == {"A Perfect Murder", "a 1998 American crime film", "Dial M for Murder"}
    merged = g.find_node("A Perfect Murder")
    assert set(merged.mention_texts) == {"A Perfect Murder", "It"}
    # merge is degree-preserving: both edges now hang off the merged node
    assert degree(g, merged.id) == 2
    assert len(g.edges) == 2


def test_pronouns_merge_only_through_their_clusters():
    ctx = make_context(
        ["Alpha Corp makes engines.", "It is based in Oslo.",
         "Beta Corp makes tyres.", "It is based in Rome."],
        [
            (0, "Alpha Corp", "makes", "engines"),
            (1, "It", "is based in", "Oslo"),
            (2, "Beta Corp", "makes", "tyres"),
            (3, "It", "is based in", "Rome"),
        ],
        coref=[[(0, "Alpha Corp"), (1, "It")], [(2, "Beta Corp"), (3, "It")]],
        named_entities=[(0, "Alpha Corp"), (1, "Oslo"), (2, "Beta Corp"), (3, "Rome")],
    )
    g = build_context_graph(ctx)
    alpha, beta = g.find_node("Alpha Corp"), g.find_node("Beta Corp")
    # Equal pronoun text is not coreference: the two "It"s stay apart.
    assert alpha.id != beta.id
    assert alpha.mention_texts == ["Alpha Corp", "It"]
    assert beta.mention_texts == ["Beta Corp", "It"]
    assert [m.sent for m in alpha.mentions] == [0, 1]
    assert [m.sent for m in beta.mentions] == [2, 3]
    oslo, rome = g.find_node("Oslo"), g.find_node("Rome")
    assert g.edges_between(alpha.id, oslo.id) and not g.edges_between(beta.id, oslo.id)
    assert g.edges_between(beta.id, rome.id) and not g.edges_between(alpha.id, rome.id)


def test_unclustered_pronouns_stay_apart():
    ctx = make_context(
        ["It faces Oslo.", "It faces Rome."],
        [(0, "It", "faces", "Oslo"), (1, "It", "faces", "Rome")],
        named_entities=[(0, "Oslo"), (1, "Rome")],
    )
    g = build_context_graph(ctx)
    assert [n.mention_texts for n in g.nodes] == [["It"], ["Oslo"], ["It"], ["Rome"]]
    assert len(g.edges) == 2


def test_merge_drops_self_loop():
    ctx = make_context(
        ["The Nile flows through Egypt.", "It nourished itself."],
        [(0, "The Nile", "flows through", "Egypt"), (1, "It", "nourished", "itself")],
        coref=[[(0, "The Nile"), (1, "It"), (1, "itself")]],
        named_entities=[(0, "The Nile"), (0, "Egypt")],
    )
    g = build_context_graph(ctx)
    # second triple collapses to a self-loop on the merged node and is dropped
    assert len(g.edges) == 1
    assert surfaces(g) == {"The Nile", "Egypt"}


def test_duplicate_triples_dedupe_parallel_relations_kept():
    ctx = make_context(
        ["Rome hosted the games and Rome hosted the games.", "Rome organized the games."],
        [
            (0, "Rome", "hosted", "the games"),
            (0, "Rome", "hosted", "the games"),
            (1, "Rome", "organized", "the games"),
        ],
        named_entities=[(0, "Rome")],
    )
    g = build_context_graph(ctx)
    assert len(g.nodes) == 2
    assert len(g.edges) == 2
    assert {e.relation for e in g.edges} == {"hosted", "organized"}
    # parallel edges still count once toward undirected degree
    assert degree(g, g.find_node("Rome").id) == 1


def test_out_of_bounds_span_names_triple():
    doc = make_context_doc(
        ["Alpha follows Beta."],
        [(0, "Alpha", "follows", "Beta")],
    )
    doc["triples"][0]["object"]["end"] = 999
    with pytest.raises(AnnotationError, match="triple 0"):
        AnnotatedContext.from_json(doc)


def test_direct_construction_validates_spans():
    # Not only from_json: building a context any way checks its spans.
    sentence = Sentence(0, 0, 19, "Alpha follows Beta.")
    triple = Triple(Span(0, 0, 5), Span(0, 6, 13), Span(0, 14, 40))
    with pytest.raises(AnnotationError, match="triple 0 object"):
        AnnotatedContext("Alpha follows Beta. Gamma follows Delta.", [sentence], [triple])


def test_multi_sentence_triple_rejected():
    doc = make_context_doc(
        ["Alpha follows Beta.", "Gamma follows Delta."],
        [(0, "Alpha", "follows", "Beta")],
    )
    doc["triples"][0]["object"] = {"sent": 1, "start": doc["sentences"][1]["start"], "end": doc["sentences"][1]["start"] + 5}
    with pytest.raises(AnnotationError, match="multiple sentences"):
        AnnotatedContext.from_json(doc)


def _validation_doc() -> dict:
    # "Alpha follows Beta." is [0, 19) and "Gamma follows Delta." is [20, 40).
    return make_context_doc(
        ["Alpha follows Beta.", "Gamma follows Delta."],
        [(0, "Alpha", "follows", "Beta"), (1, "Gamma", "follows", "Delta")],
        coref=[[(0, "Beta"), (1, "Gamma")]],
        named_entities=[(0, "Alpha"), (1, "Delta")],
    )


def _construct_directly(doc: dict) -> AnnotatedContext:
    text = doc["context"]
    return AnnotatedContext(
        text,
        [Sentence(i, s["start"], s["end"], text[s["start"] : s["end"]]) for i, s in enumerate(doc["sentences"])],
        [Triple(Span(**t["subject"]), Span(**t["relation"]), Span(**t["object"])) for t in doc["triples"]],
        [tuple(Span(**m) for m in cluster) for cluster in doc["coref_clusters"]],
        [Span(**m) for m in doc["named_entities"]],
    )


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(_set(["sentences", 1, "end"], 99), "sentence 1 out of bounds", id="sentence-bounds"),
        pytest.param(_set(["sentences", 1, "start"], 10), "sentence 1 overlaps previous sentence", id="sentence-overlap"),
        pytest.param(
            _set(["triples", 1], {role: {"sent": 2, "start": 0, "end": 1} for role in ("subject", "relation", "object")}),
            "triple 1 subject: sentence index 2 out of range",
            id="sentence-index",
        ),
        pytest.param(
            _set(["triples", 1, "object", "end"], 45), "triple 1 object: span [34,45) outside its sentence", id="span-outside"
        ),
        pytest.param(
            _set(["triples", 1, "subject", "start"], 5), "triple 1 subject: span [5,25) outside its sentence",
            id="subject-outside",
        ),
        pytest.param(
            _set(["triples", 0, "object"], {"sent": 1, "start": 20, "end": 25}),
            "triple 0 spans multiple sentences",
            id="multi-sentence",
        ),
        pytest.param(
            lambda doc: doc["coref_clusters"][0].pop(), "coref cluster 0 has fewer than two mentions", id="lone-mention"
        ),
        pytest.param(
            _set(["coref_clusters", 0, 1, "sent"], 2), "coref cluster 0 mention: sentence index 2 out of range",
            id="mention-sentence-index",
        ),
        pytest.param(
            _set(["named_entities", 1], {"sent": 0, "start": 34, "end": 39}),
            "named entity 1: span [34,39) outside its sentence",
            id="named-entity",
        ),
        pytest.param(
            _set(["named_entities", 1, "sent"], 5), "named entity 1: sentence index 5 out of range",
            id="named-entity-sentence-index",
        ),
    ],
)
def test_every_validation_error_names_its_item(edit, message):
    doc = _validation_doc()
    AnnotatedContext.from_json(doc)  # valid before the edit
    edit(doc)
    for build in (AnnotatedContext.from_json, _construct_directly):
        with pytest.raises(AnnotationError) as err:
            build(doc)
        assert str(err.value) == message, build


def test_a_coref_mention_outside_its_sentence_names_its_cluster():
    doc = _validation_doc()
    doc["coref_clusters"][0][1]["end"] = 45
    for build in (AnnotatedContext.from_json, _construct_directly):
        with pytest.raises(AnnotationError) as err:
            build(doc)
        assert str(err.value) == "coref cluster 0 mention: span [20,45) outside its sentence", build


def test_find_node_exact_beats_overlap(film_graph):
    assert film_graph.find_node("tom cruise").surface == "Tom Cruise"


def test_find_node_token_overlap(film_graph):
    # no exact node, highest overlapping token count wins
    assert film_graph.find_node("Scott filmography").surface == "Tony Scott"
    assert film_graph.find_node("the American actor").surface == "an American actor"


def test_find_node_overlap_tie_lowest_id():
    ctx = make_context(
        ["Blue Mountain faces Blue River."],
        [(0, "Blue Mountain", "faces", "Blue River")],
        named_entities=[(0, "Blue Mountain"), (0, "Blue River")],
    )
    g = build_context_graph(ctx)
    hit = g.find_node("Blue")
    assert hit.id == min(n.id for n in g.nodes)


def test_find_node_exact_match_takes_the_lowest_id():
    # "It" is a mention of both companies; the first node in id order wins,
    # whether found first or after another lookup built the index.
    ctx = make_context(
        ["Alpha Corp makes engines.", "It is big.", "Beta Corp makes tyres.", "It is small."],
        [
            (0, "Alpha Corp", "makes", "engines"),
            (1, "It", "is", "big"),
            (2, "Beta Corp", "makes", "tyres"),
            (3, "It", "is", "small"),
        ],
        coref=[[(0, "Alpha Corp"), (1, "It")], [(2, "Beta Corp"), (3, "It")]],
    )
    g = build_context_graph(ctx)
    assert g.find_node(" it ").surface == "Alpha Corp"
    assert g.find_node("TYRES").surface == "tyres"
    assert g.find_node("It").id == 0


def test_find_node_zero_overlap_raises(film_graph):
    with pytest.raises(NodeNotFoundError):
        film_graph.find_node("zebra quartet")


def test_ne_heuristic_without_annotation():
    ctx = make_context(
        ["Paris lies on the Seine.", "It attracts visitors."],
        [(0, "Paris", "lies on", "the Seine"), (1, "It", "attracts", "visitors")],
        coref=[[(0, "Paris"), (1, "It")]],
    )
    g = build_context_graph(ctx)
    paris = g.find_node("Paris")
    # sentence-initial single capitalized token is not NE evidence on its own,
    # but "the Seine" has a mid-sentence capitalized token
    assert not paris.is_named_entity
    seine = g.find_node("the Seine")
    assert not seine.is_named_entity  # leading lowercase 'the' breaks the run
    ctx2 = make_context(
        ["A song by Elvis Presley topped charts."],
        [(0, "A song", "by", "Elvis Presley")],
    )
    g2 = build_context_graph(ctx2)
    assert g2.find_node("Elvis Presley").is_named_entity
    assert not g2.find_node("A song").is_named_entity


def test_entity_link_points_to_adjacent_ne(film_graph):
    film_node = film_graph.find_node("a 1986 action film")
    assert film_graph.entity_link(film_node.id) == film_graph.find_node("Top Gun").id


def _fresh_tables():
    """A graph whose tables nothing has read yet, and a generator input."""
    sentences = [f"Person {i} visited City {i % 7} near Lake {i % 5}." for i in range(60)]
    triples = [(i, f"Person {i}", "visited", f"City {i % 7}") for i in range(60)]
    triples += [(i, f"City {i % 7}", "near", f"Lake {i % 5}") for i in range(60)]
    graph = build_context_graph(
        make_context(sentences, triples, named_entities=[(i, f"Person {i}") for i in range(60)])
    )
    gi = GeneratorInput(
        step=2, sentence=sentences[7], node_child="Lake 2", edge="near", node_parent="City 0",
        direction=EdgeDirection.CHILD_TO_PARENT, rewrite_type=RewriteType.BRIDGE,
        sub_question="Who visited City 0 after City 0?", parent_aliases=("city 0",),
    )
    return graph, gi


def _table_reads(graph, gi):
    ids = range(len(graph.nodes))
    return [
        lambda: graph.answer_nodes,
        lambda: [graph.entity_link(n) for n in ids],
        lambda: [graph.find_node(q).id for q in ("Person 12", "city 3", "lake", "visited Person 7 twice")],
        lambda: [graph.overlap_node({"city", "lake", "4"}, exclude=(n,)).id for n in ids],
        lambda: [graph.incident(n) for n in ids],
        lambda: gi.text,
        lambda: gi.segments,
    ]


def test_first_reads_of_the_cached_tables_agree_across_threads():
    # In each round eight threads make the first reads of a fresh graph's
    # tables and serialize a fresh input at once, each in another order, with a
    # thread switch due every microsecond; each must see what one thread
    # alone sees. A race shows in some rounds only, hence ten.
    expected = [read() for read in _table_reads(*_fresh_tables())]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(10):
                reads = _table_reads(*_fresh_tables())
                start = threading.Barrier(8)

                def run(k):
                    start.wait()
                    seen = [None] * len(reads)
                    for j in range(len(reads)):
                        j = (j + k) % len(reads)
                        seen[j] = reads[j]()
                    return seen

                assert list(pool.map(run, range(8))) == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_nodes_are_immutable_with_the_flag_fixed_when_made(film_graph):
    node = film_graph.nodes[0]
    with pytest.raises(AttributeError):
        node.is_named_entity = not node.is_named_entity
    flipped = node._replace(is_named_entity=not node.is_named_entity)
    assert flipped[:4] == node[:4] and flipped.is_named_entity is not node.is_named_entity
    assert Node(7, "x", [], []).is_named_entity is False


def test_build_is_deterministic(film_ctx):
    a = build_context_graph(film_ctx).to_json()
    b = build_context_graph(film_ctx).to_json()
    assert a == b


@pytest.mark.parametrize("annotated", [True, False], ids=["named-entities", "capitalized-runs"])
def test_indexed_matching_equals_all_pairs_rule(annotated):
    nodes = merged = named = 0
    for seed in range(200):
        doc = random_context_doc(random.Random(seed))
        if not annotated:
            del doc["named_entities"]
        ctx = AnnotatedContext.from_json(doc)
        graph = build_context_graph(ctx)
        expected = oracle_graph_merges(ctx)
        assert [(n.mentions, n.is_named_entity) for n in graph.nodes] == expected, seed
        nodes += len(expected)
        merged += sum(len({span_text(ctx, m).casefold() for m in ms}) > 1 for ms, _ in expected)
        named += sum(flag for _, flag in expected)
    # The contexts exercise coreference merges and both NE outcomes.
    assert merged > 0 and 0 < named < nodes


# sha256 over build_context_graph(ctx).to_json() for the contexts of
# _golden_docs, so that no edit to the builder changes a graph silently.
GRAPH_GOLDEN = "01b75ff48d0924df524f6c9148e38d5589377e62d78eefa93f538e7a787e5981"


def _golden_docs() -> list[dict]:
    docs = [film_context_doc(), film3_context_doc(), star_context_doc(), remake_context_doc()]
    for seed in range(60):
        # With named entities, and without them so the capitalized-run rule
        # decides instead.
        doc = random_context_doc(random.Random(seed))
        docs.append(doc)
        docs.append({k: v for k, v in doc.items() if k != "named_entities"})
    # Pronouns, casing and spacing: clustered and unclustered pronouns, a
    # node of pronouns only, equal keys under different case and spacing,
    # and a cluster that merges two named groups.
    pronouns = make_context_doc(
        ["Alpha  Corp makes  engines in Oslo.", "It is based in Oslo.", "alpha corp hired Beta Ltd.",
         "They sued it.", "ALPHA CORP bought Beta Ltd.", "He met She."],
        [
            (0, "Alpha  Corp", "makes  engines in", "Oslo"),
            (1, "It", "is based in", "Oslo"),
            (2, "alpha corp", "hired", "Beta Ltd"),
            (3, "They", "sued", "it"),
            (4, "ALPHA CORP", "bought", "Beta Ltd"),
            (5, "He", "met", "She"),
        ],
        coref=[[(0, "Alpha  Corp"), (1, "It"), (3, "it")], [(2, "Beta Ltd"), (3, "They"), (4, "ALPHA CORP")]],
    )
    docs.append(pronouns)
    docs.append(dict(pronouns, named_entities=[pronouns["triples"][0]["subject"]]))
    return docs


def test_graph_golden_digest():
    digest = hashlib.sha256()
    for doc in _golden_docs():
        graph = build_context_graph(AnnotatedContext.from_json(doc))
        digest.update(json.dumps(graph.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GRAPH_GOLDEN
