"""Dataset construction: rule backends, stage functions, full builds."""

import json

import pytest

from hopqg.dataset_builder import (
    PLACEHOLDER,
    SKIP_ANSWER,
    SKIP_NODE,
    SKIP_OVERLAP,
    SKIP_REASONS,
    SKIP_TYPE_FILTERED,
    BackendSuite,
    ReasoningTypeTag,
    RuleDecomposer,
    RuleQa,
    RuleTypeClassifier,
    _Skip,
    assign_context_sentences,
    build_dataset,
    locate_chain,
    process_record,
    select_initial_pair,
)
from hopqg.errors import AnnotationError, ConfigError
from hopqg.graph import build_context_graph
from hopqg.hotpot import (
    fallback_annotate,
    load_hotpot,
    parse_record,
    record_context,
)
from hopqg.planner import RewriteType
from hopqg.textutil import content_tokens
from oracles import span_text
from util import (
    comparison_record_doc,
    hotpot_record_doc,
    novel_record_doc,
    prize_record_doc,
    remake_record_doc,
    rule_suite,
)

FIG2_QUESTION = "Who directed the film to which A Perfect Murder was a modern remake?"


# Hand-labeled fixture standing in for trained-classifier output. The rule
# classifier is allowed to disagree on a minority (it is a documented
# lower-fidelity stand-in); agreement must stay at or above 80%.
LABELED_QUESTIONS = [
    (FIG2_QUESTION, "Bridge"),
    ("Which film is longer, Sunset Years or The Long Road?", "Comparison"),
    ("Who starred in Heat Wave and won the Marlowe Prize?", "Intersection"),
    ("Who directed Dial M for Murder?", "OneHop"),
    ("What is the capital of the country that borders Lavonia?", "Bridge"),
    ("Which singer wrote Blue Harbor and founded the Aria School?", "Intersection"),
    ("Are both Silver Lake and Crystal Bay located in Minnesota?", "Comparison"),
    ("Who is older, Marco Reyes or Lena Faulkner?", "Comparison"),
    ("What river flows through the city where Anna Keller was born?", "Bridge"),
    ("When was the Lyon Conservatory founded?", "OneHop"),
    ("Which mountain is taller, Mount Orel or Pike Summit?", "Comparison"),
    ("Who composed the opera that premiered at the Garnier Hall in 1902?", "Bridge"),
    ("What team does Ivan Petrov play for?", "OneHop"),
    ("Which actor appeared in Night Train and directed Paper Moon?", "Intersection"),
    ("Where is the museum that houses the Bronze Rider?", "Bridge"),
    ("Who won the Marlowe Prize in 1996?", "OneHop"),
    ("Which city hosted the 1956 games and borders the Azure Sea?", "Intersection"),
    ("What is the birthplace of the author of River Songs?", "Bridge"),
    ("Is Harbor Lights longer than Golden Coast?", "Comparison"),
    ("Who is the mayor of the town where the Elm Festival is held?", "Bridge"),
]


def test_classifier_canonical_cases():
    clf = RuleTypeClassifier()
    assert clf.classify(FIG2_QUESTION) == "Bridge"
    assert clf.classify("Which film is longer, Sunset Years or The Long Road?") == "Comparison"
    assert clf.classify("Who starred in Heat Wave and won the Marlowe Prize?") == "Intersection"
    assert clf.classify("Who directed Dial M for Murder?") == "OneHop"
    with pytest.raises(AnnotationError):
        clf.classify("   ")


def test_classifier_agreement_with_labeled_fixture():
    clf = RuleTypeClassifier()
    agree = sum(1 for q, gold in LABELED_QUESTIONS if clf.classify(q) == gold)
    assert agree / len(LABELED_QUESTIONS) >= 0.8


def test_decompose_bridge_worked_example():
    sub1, sub2 = RuleDecomposer().decompose(FIG2_QUESTION, "Bridge")
    assert sub1 == "To which film A Perfect Murder was a modern remake?"
    assert sub2 == f"Who directed {PLACEHOLDER}?"


def test_decompose_bridge_bare_marker_and_retry():
    dec = RuleDecomposer()
    sub1, sub2 = dec.decompose(
        "What is the capital of the country that borders Lavonia?", "Bridge"
    )
    assert sub1 == "Which country borders Lavonia?"
    assert sub2 == f"What is the capital of {PLACEHOLDER}?"
    # The first marker here is the question's own wh-phrase; the splitter
    # must move on to the embedded clause instead of giving up.
    sub1, sub2 = dec.decompose(
        "In which year did the committee that awards the Marlowe Prize form?", "Bridge"
    )
    assert sub1 == "Which committee awards the Marlowe Prize form?"
    assert sub2 == f"In which year did {PLACEHOLDER}?"


def test_decompose_intersection_conjunction_split():
    sub1, sub2 = RuleDecomposer().decompose(
        "Who starred in Heat Wave and won the Marlowe Prize?", "Intersection"
    )
    assert sub1 == "Who starred in Heat Wave?"
    assert sub2 == "Who won the Marlowe Prize?"


def test_decompose_returns_none_without_split_point():
    dec = RuleDecomposer()
    assert dec.decompose("Who directed Dial M for Murder?", "Bridge") is None
    assert dec.decompose("Who directed Dial M for Murder?", "Intersection") is None


def _coverage_sample():
    """Labeled fixtures plus a generated family, ~70 questions in total."""
    sample = [(q, g) for q, g in LABELED_QUESTIONS if g in ("Bridge", "Intersection")]
    entities = [
        "Heat Wave",
        "Sea Post",
        "Ocean Letters",
        "Top Gun",
        "Dial M for Murder",
        "North Shields",
        "the Marlowe Prize",
        "Lavonia",
        "A Perfect Murder",
        "Tony Scott",
    ]
    categories = ["film", "novel", "committee", "person", "city"]
    relations = ["starred", "directed", "produced", "inspired", "awarded"]
    for i in range(30):
        entity = entities[i % len(entities)]
        category = categories[i % len(categories)]
        relation = relations[i % len(relations)]
        sample.append(
            (f"Who {relation} the {category} that featured {entity}?", "Bridge")
        )
        other = entities[(i + 3) % len(entities)]
        sample.append(
            (f"Which person visited {entity} and admired {other}?", "Intersection")
        )
    return sample


def test_decompose_subquestions_shorter_and_cover_content():
    dec = RuleDecomposer()
    clf = RuleTypeClassifier()
    checked = 0
    for question, gold in _coverage_sample():
        if clf.classify(question) != gold:
            continue
        split = dec.decompose(question, gold)
        if split is None:
            continue
        sub1, sub2 = split
        assert len(sub1) < len(question) and len(sub2) < len(question)
        q_content = set(content_tokens(question))
        covered = set(content_tokens(sub1)) | set(content_tokens(sub2))
        assert len(q_content & covered) / len(q_content) >= 0.9
        checked += 1
    assert checked >= 50


def fig2_context_text():
    record = parse_record(remake_record_doc())
    return record, record_context(record).context


def test_rule_qa_worked_example_answers():
    record, context = fig2_context_text()
    qa = RuleQa()
    suba1 = qa.answer("To which film A Perfect Murder was a modern remake?", context)
    assert suba1 == "Dial M for Murder"
    suba2 = qa.answer("Who directed Dial M for Murder?", context)
    assert suba2 == "Alfred Hitchcock"
    for answer in (suba1, suba2):
        assert answer in context


def test_rule_qa_answer_is_context_substring():
    qa = RuleQa()
    context = "Victor Reyes won the Marlowe Prize in 1996. Heat Wave is a film."
    answer = qa.answer("Who won the Marlowe Prize?", context)
    assert answer == "Victor Reyes"
    assert answer in context


def test_rule_qa_no_overlap_returns_empty():
    assert RuleQa().answer("Who painted the ceiling?", "Snow fell quietly.") == ""


def test_select_initial_pair_bridge_matches_final_answer():
    q1, a1, chosen = select_initial_pair(
        ReasoningTypeTag.BRIDGE,
        "To which film A Perfect Murder was a modern remake?",
        "Dial M for Murder",
        "Who directed Dial M for Murder?",
        "Alfred Hitchcock.",
        "alfred hitchcock",
    )
    assert chosen == 2
    assert q1 == "Who directed Dial M for Murder?"
    assert a1 == "Alfred Hitchcock."


def test_select_initial_pair_mismatch_skips():
    with pytest.raises(_Skip) as err:
        select_initial_pair(ReasoningTypeTag.BRIDGE, "q1", "x", "q2", "y", "z")
    assert err.value.reason == SKIP_ANSWER
    with pytest.raises(_Skip):
        select_initial_pair(ReasoningTypeTag.BRIDGE, "q1", "same", "q2", "same", "same")


def test_select_initial_pair_intersection_fixed_choice():
    q1, a1, chosen = select_initial_pair(
        ReasoningTypeTag.INTERSECTION, "q one", "a one", "q two", "a two", "whatever"
    )
    assert (q1, a1, chosen) == ("q one", "a one", 1)


def test_assign_context_sentences_fig2():
    record = parse_record(remake_record_doc())
    s1, s2 = assign_context_sentences(record, "Who directed Dial M for Murder?")
    assert s1 == [("Dial M for Murder", 0)]
    assert s2 == [("A Perfect Murder", 1)]


def test_parse_record_reads_an_integral_float_index_as_int():
    doc = remake_record_doc()
    doc["supporting_facts"] = [["A Perfect Murder", 1.0], ["Dial M for Murder", 0]]
    facts = parse_record(doc).supporting_facts
    assert facts == [("A Perfect Murder", 1), ("Dial M for Murder", 0)]
    assert all(type(idx) is int for _, idx in facts)


def test_assign_context_sentences_tie_prefers_first_paragraph():
    doc = hotpot_record_doc(
        "tie-1",
        "Who met the painter?",
        "x",
        paragraphs=[
            ("Alpha", ["The painter lived here."]),
            ("Beta", ["The painter worked there."]),
        ],
        facts=[("Alpha", 0), ("Beta", 0)],
    )
    record = parse_record(doc)
    s1, s2 = assign_context_sentences(record, "Who met the painter?")
    assert s1 == [("Alpha", 0)] and s2 == [("Beta", 0)]


def test_assign_context_sentences_no_overlap_skips():
    record = parse_record(remake_record_doc())
    with pytest.raises(_Skip) as err:
        assign_context_sentences(record, "zz yy xx?")
    assert err.value.reason == SKIP_OVERLAP


def test_locate_chain_fig2():
    record = parse_record(remake_record_doc())
    graph = build_context_graph(record_context(record))
    chain = locate_chain(
        graph,
        "Alfred Hitchcock",
        "Who directed Dial M for Murder?",
        "To which film A Perfect Murder was a modern remake?",
        ReasoningTypeTag.BRIDGE,
    )
    assert [n.surface for n in chain.nodes] == [
        "Alfred Hitchcock",
        "Dial M for Murder",
        "A Perfect Murder",
    ]
    assert chain.nodes[2].parent == 1
    assert chain.d == 2


def test_locate_chain_unfound_nodes_skip():
    record = parse_record(remake_record_doc())
    graph = build_context_graph(record_context(record))
    with pytest.raises(_Skip) as err:
        locate_chain(graph, "Nobody Anywhere Unknown Zz", "q", "q", ReasoningTypeTag.BRIDGE)
    assert err.value.reason == SKIP_NODE
    with pytest.raises(_Skip):
        locate_chain(
            graph, "Alfred Hitchcock", "zz yy?", "xx ww?", ReasoningTypeTag.BRIDGE
        )


def test_process_record_fig2_golden():
    record = parse_record(remake_record_doc())
    kind, example, label = process_record(record, rule_suite())
    assert kind == "example" and label == "Bridge"
    assert example.rewrite_type is ReasoningTypeTag.BRIDGE
    assert example.q1 == "Who directed Dial M for Murder?"
    assert example.a1 == "Alfred Hitchcock"
    assert [n.surface for n in example.chain.nodes] == [
        "Alfred Hitchcock",
        "Dial M for Murder",
        "A Perfect Murder",
    ]
    assert example.s1 == [("Dial M for Murder", 0)]
    assert example.backends == {"classify": "rule", "decompose": "rule", "qa": "rule"}


def test_process_record_intersection_star():
    record = parse_record(prize_record_doc())
    kind, example, label = process_record(record, rule_suite())
    assert kind == "example" and label == "Intersection"
    assert example.q1 == "Who starred in Heat Wave?"
    assert example.a1 == "Victor Reyes"
    chain = example.chain
    assert chain.nodes[0].surface == "Victor Reyes"
    assert {chain.nodes[1].surface, chain.nodes[2].surface} == {
        "Heat Wave",
        "The Marlowe Prize",
    }
    # Star shape: both located nodes hang off the answer node.
    assert chain.nodes[1].parent == 0 and chain.nodes[2].parent == 0
    assert chain.nodes[1].rewrite_type is RewriteType.BRIDGE
    assert chain.nodes[2].rewrite_type is RewriteType.INTERSECTION


def test_process_record_fallback_annotation_path():
    record = parse_record(novel_record_doc())
    assert record.annotations is None
    kind, example, label = process_record(record, rule_suite())
    assert kind == "example" and label == "Bridge"
    assert example.q1 == "Who wrote Sea Post?"
    assert example.a1 == "Nora Hale"
    assert [n.surface for n in example.chain.nodes] == [
        "Nora Hale",
        "Sea Post",
        "The film Ocean Letters",
    ]


def all_records():
    return [
        parse_record(remake_record_doc()),
        parse_record(comparison_record_doc()),
        parse_record(prize_record_doc()),
    ]


def test_build_dataset_three_record_fixture():
    examples, stats = build_dataset(all_records(), rule_suite())
    assert len(examples) == 2
    assert stats["records"] == 3
    assert stats["examples"] == 2
    assert stats["skips"][SKIP_TYPE_FILTERED] == 1
    assert stats["errors"] == 0
    assert stats["types"] == {"Bridge": 1, "Comparison": 1, "Intersection": 1}
    assert set(stats["skips"]) == set(SKIP_REASONS)
    total = stats["examples"] + sum(stats["skips"].values()) + stats["errors"]
    assert total == stats["records"]
    for example in examples:
        assert example.rewrite_type in (
            ReasoningTypeTag.BRIDGE,
            ReasoningTypeTag.INTERSECTION,
        )


def test_build_dataset_chain_edges_exist_in_graph():
    examples, _ = build_dataset(all_records(), rule_suite())
    by_id = {
        "remake-1": remake_record_doc(),
        "prize-1": prize_record_doc(),
    }
    for example in examples:
        graph = build_context_graph(record_context(parse_record(by_id[example.record_id])))
        nodes = example.chain.nodes
        assert len(nodes) == 3
        for node in nodes[1:]:
            parent = nodes[node.parent]
            edges = graph.edges_between(node.node_id, parent.node_id)
            assert any(
                e.relation == node.edge_text and e.sentence_index == node.sentence
                for e in edges
            )
        # Supporting-fact sets stay disjoint and within the record's facts.
        record = parse_record(by_id[example.record_id])
        assert not (set(example.s1) & set(example.s2))
        assert set(example.s1) | set(example.s2) <= set(record.supporting_facts)


def test_build_dataset_deterministic_and_concurrent_parity():
    serial_a, stats_a = build_dataset(all_records(), rule_suite())
    serial_b, stats_b = build_dataset(all_records(), rule_suite())
    pool, stats_c = build_dataset(all_records(), rule_suite(), concurrency=4)
    dump = lambda exs: json.dumps([e.to_json() for e in exs], sort_keys=True)
    assert dump(serial_a) == dump(serial_b) == dump(pool)
    assert stats_a == stats_b == stats_c


def test_build_dataset_requires_backends():
    suite = BackendSuite(classifier=None, decomposer=RuleDecomposer(), qa=RuleQa())
    with pytest.raises(ConfigError):
        build_dataset([], suite)


def test_parse_record_validation():
    good = remake_record_doc()
    record = parse_record(good)
    assert record.record_id == "remake-1"
    # Consumed paragraphs follow supporting-fact order, not context order.
    assert [p.title for p in record.paragraphs] == ["A Perfect Murder", "Dial M for Murder"]

    bad = remake_record_doc()
    bad["supporting_facts"] = [["A Perfect Murder", 1], ["Nowhere", 0]]
    with pytest.raises(AnnotationError):
        parse_record(bad)

    bad = remake_record_doc()
    bad["supporting_facts"] = [["A Perfect Murder", 9], ["Dial M for Murder", 0]]
    with pytest.raises(AnnotationError):
        parse_record(bad)

    bad = remake_record_doc()
    bad["supporting_facts"] = [["A Perfect Murder", 0], ["A Perfect Murder", 1]]
    with pytest.raises(AnnotationError):
        parse_record(bad)

    bad = remake_record_doc()
    del bad["question"]
    with pytest.raises(AnnotationError):
        parse_record(bad)


def test_load_hotpot_roundtrip(tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([remake_record_doc(), prize_record_doc()]))
    records = load_hotpot(str(path))
    assert [r.record_id for r in records] == ["remake-1", "prize-1"]
    with pytest.raises(AnnotationError):
        path.write_text(json.dumps({"not": "a list"}))
        load_hotpot(str(path))


def test_fallback_annotate_patterns():
    record = parse_record(novel_record_doc())
    ctx = fallback_annotate(record)
    assert len(ctx.sentences) == 2
    assert len(ctx.triples) == 2
    subj, rel, obj = (
        span_text(ctx, ctx.triples[0].subject),
        span_text(ctx, ctx.triples[0].relation),
        span_text(ctx, ctx.triples[0].object),
    )
    assert (subj, rel, obj) == ("The film Ocean Letters", "was inspired by", "Sea Post")
    subj2, rel2, obj2 = (
        span_text(ctx, ctx.triples[1].subject),
        span_text(ctx, ctx.triples[1].relation),
        span_text(ctx, ctx.triples[1].object),
    )
    assert (subj2, rel2, obj2) == ("Nora Hale", "wrote", "Sea Post")


def test_fallback_annotate_skips_unsplittable_sentences():
    doc = hotpot_record_doc(
        "odd-1",
        "Who knows?",
        "x",
        paragraphs=[("A", ["Wind."]), ("B", ["Green hills far away."])],
        facts=[("A", 0), ("B", 0)],
    )
    ctx = fallback_annotate(parse_record(doc))
    assert ctx.triples == []
    assert len(ctx.sentences) == 2


def test_record_context_prefers_curated_annotations():
    record = parse_record(remake_record_doc())
    ctx = record_context(record)
    # The curated annotation carries the coref cluster; the fallback never does.
    assert len(ctx.coref_clusters) == 1
