"""Dataset construction: rule backends, stage functions, full builds."""

import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import hopqg.dataset_builder as builder
import hopqg.graph
from hopqg.cli import main
from hopqg.dataset_builder import (
    PLACEHOLDER,
    SKIP_ANSWER,
    SKIP_DECOMPOSE,
    SKIP_NODE,
    SKIP_OVERLAP,
    SKIP_QA,
    SKIP_REASONS,
    SKIP_TYPE_FILTERED,
    BackendSuite,
    ReasoningTypeTag,
    RuleDecomposer,
    RuleQa,
    RuleTypeClassifier,
    TrainingExample,
    _longest_common_run,
    _Skip,
    assign_context_sentences,
    build_dataset,
    locate_chain,
    process_record,
    select_initial_pair,
)
from hopqg.context import AnnotatedContext
from hopqg.errors import AnnotationError, BackendError, ConfigError, Failure, NodeNotFoundError
from hopqg.graph import build_context_graph
from hopqg.hotpot import (
    fallback_annotate,
    load_hotpot,
    parse_record,
    record_context,
)
from hopqg.planner import RewriteType
from hopqg.textutil import content_tokens
from oracles import oracle_best_node, oracle_find_node, oracle_longest_common_run, span_text
from util import (
    comparison_record_doc,
    film3_context_doc,
    film_context_doc,
    hotpot_record_doc,
    make_context_doc,
    novel_record_doc,
    prize_record_doc,
    random_context_doc,
    remake_context_doc,
    remake_record_doc,
    rule_suite,
    star_context_doc,
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
    assert clf.classify("Who?") == "OneHop"
    # A comparison needs both a comparative word and "or": either alone is not one.
    assert clf.classify("Which director or writer made the film that won the Marlowe Prize?") == "Bridge"
    assert clf.classify("Who directed the film that is longer than Golden Coast?") == "Bridge"
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
    # With no article before the head, the head alone is replaced.
    sub1, sub2 = dec.decompose("Who directed films that won awards?", "Bridge")
    assert sub1 == "Which films won awards?"
    assert sub2 == f"Who directed {PLACEHOLDER}?"


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
    example, label = process_record(record, rule_suite())
    assert type(example) is TrainingExample and label == "Bridge"
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
    example, label = process_record(record, rule_suite())
    assert type(example) is TrainingExample and label == "Intersection"
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
    example, label = process_record(record, rule_suite())
    assert type(example) is TrainingExample and label == "Bridge"
    assert example.q1 == "Who wrote Sea Post?"
    assert example.a1 == "Nora Hale"
    assert [n.surface for n in example.chain.nodes] == [
        "Nora Hale",
        "Sea Post",
        "The film Ocean Letters",
    ]


def scripted_suite(label=None, split=None, answers=None) -> BackendSuite:
    """The rule suite, except for the label, the split or the answers to
    some sub-questions that the test gives."""
    suite = rule_suite()
    if label is not None:
        suite.classifier.classify = lambda question: label
    if split is not None:
        suite.decomposer.decompose = lambda question, qtype=None: split
    if answers is not None:
        answer = suite.qa.answer
        suite.qa.answer = lambda question, context: answers[question] if question in answers else answer(question, context)
    return suite


def test_process_record_bridge_keeps_its_first_sub_question():
    """The first sub-question's answer is the record's answer, so the
    Bridge keeps it, and the second names the leaf."""
    record = parse_record(remake_record_doc())
    split = ("Who directed Dial M for Murder?", "To which film A Perfect Murder was a modern remake?")
    example, label = process_record(record, scripted_suite(split=split))
    assert label == "Bridge"
    assert (example.q1, example.a1) == ("Who directed Dial M for Murder?", "Alfred Hitchcock")
    assert [n.surface for n in example.chain.nodes] == [
        "Alfred Hitchcock",
        "Dial M for Murder",
        "A Perfect Murder",
    ]
    assert example.s1 == [("Dial M for Murder", 0)]


@pytest.mark.parametrize("question, label, suite", [
    # Intersection: nothing but the wh-word stands before the conjunction.
    ("Who and won the Marlowe Prize?", "Intersection", rule_suite),
    # Bridge: a question of one word has no clause to split at.
    ("Who?", "Bridge", lambda: scripted_suite(label="Bridge")),
    # Intersection: nothing at all stands before the conjunction.
    ("And won the Marlowe Prize?", "Intersection", rule_suite),
    # Bridge: the clause after the only marker holds one word.
    ("Who directed the film that won?", "Bridge", rule_suite),
    # Bridge: the head before the only marker is punctuation alone.
    ("Who directed -- that won awards?", "Bridge", rule_suite),
], ids=["intersection-wh-only", "intersection-first", "one-word", "one-word-clause", "punctuation-head"])
def test_process_record_skips_a_question_the_rule_decomposer_cannot_split(question, label, suite):
    record = parse_record(dict(remake_record_doc(), question=question))
    assert process_record(record, suite()) == (Failure(SKIP_DECOMPOSE, SKIP_DECOMPOSE), label)


def test_process_record_intersection_without_a_question_mark():
    """The second sub-question gains the mark; the tuple is the one the
    question with its mark gives."""
    doc = prize_record_doc()
    record = parse_record(dict(doc, question="Who starred in Heat Wave and won the Marlowe Prize"))
    example, label = process_record(record, rule_suite())
    marked, _ = process_record(parse_record(doc), rule_suite())
    assert label == "Intersection"
    assert (example.q1, example.a1) == ("Who starred in Heat Wave?", "Victor Reyes")
    assert (example.chain, example.s1, example.s2) == (marked.chain, marked.s1, marked.s2)


@pytest.mark.parametrize("split, answers, reason", [
    # The second answer is blank.
    (None, {"Who directed Dial M for Murder?": " "}, SKIP_QA),
    # The middle node, A Perfect Murder, has no edge to the answer node.
    (("Who made A Perfect Murder?", "What is Dial M for Murder?"),
     {"Who made A Perfect Murder?": "Alfred Hitchcock", "What is Dial M for Murder?": "a film"}, SKIP_NODE),
    # No node but the answer and the middle one overlaps the other sub-question.
    (("Who directed Dial M for Murder?", "Zzq qqz?"), {"Zzq qqz?": "y"}, SKIP_NODE),
], ids=["second-answer-blank", "middle-node-without-edge", "no-leaf"])
def test_process_record_skip_reasons_on_the_fig2_record(split, answers, reason):
    record = parse_record(remake_record_doc())
    outcome = process_record(record, scripted_suite(split=split, answers=answers))
    assert outcome == (Failure(reason, reason), "Bridge")


@pytest.mark.parametrize("label", ["Other", "bridge", ["Bridge"], 3])
def test_process_record_an_unknown_type_label_is_a_record_error(label):
    outcome = process_record(parse_record(remake_record_doc()), scripted_suite(label=label))
    assert outcome == (Failure(f"remake-1: unknown type label {label!r}"), label)


def test_a_record_the_classifier_fails_on_counts_no_type(capsys):
    suite = rule_suite()

    def down(question):
        raise BackendError("http://classifier.invalid/ returned HTTP 503")

    suite.classifier.classify = down
    examples, stats = build_dataset([parse_record(remake_record_doc()), parse_record(prize_record_doc())], suite)
    assert (examples, stats["errors"], stats["types"]) == ([], 2, {})
    assert capsys.readouterr().err.count("returned HTTP 503") == 2


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("question"), "missing field 'question'"),
        (lambda doc: doc.update(question=" "), "empty question"),
        (lambda doc: doc.update(question=5), "empty question"),
        (lambda doc: doc.update(supporting_facts=[["A Perfect Murder", 1], ["Nowhere", 0]]),
         "supporting fact names unknown paragraph 'Nowhere'"),
    ],
    ids=["missing", "empty", "not-a-string", "unknown-paragraph"],
)
def test_parse_record_errors_name_no_place(edit, message):
    """Where a record sits is named by the reader of its file, not here."""
    doc = remake_record_doc()
    edit(doc)
    with pytest.raises(AnnotationError) as info:
        parse_record(doc)
    assert str(info.value) == message


def test_load_hotpot_roundtrip(tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([remake_record_doc(), prize_record_doc()]))
    records = load_hotpot(str(path), path.read_text())
    assert [r.record_id for r in records] == ["remake-1", "prize-1"]
    with pytest.raises(AnnotationError):
        path.write_text(json.dumps({"not": "a list"}))
        load_hotpot(str(path), path.read_text())


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


def test_fallback_annotate_edge_cases():
    """A particle joins a plain verb; a pivot at either edge of its sentence,
    or a subject or object of punctuation alone, gives no triple; a blank
    sentence is left out and takes no index. A word of three letters ending
    in "ed" is no participle and no verb; a longer one is both, and a
    participle takes a particle after it only."""
    sentences = [
        "Sea Post is", '" wrote Sea Post.', "The barn was red.", "The film was directed.",
        "The city was named after its river.", "The red barn burned down.", "The company Mia founded.",
        "Nora Hale wrote !!",
    ]
    doc = hotpot_record_doc(
        "edge-1",
        "Who knows?",
        "x",
        paragraphs=[
            ("A", ["Nora Hale wrote for The Daily Post.", "   ", "Was born in Leeds."]),
            ("B", sentences),
        ],
        facts=[("A", 0), ("B", 0)],
    )
    ctx = fallback_annotate(parse_record(doc))
    assert [(s.index, s.text) for s in ctx.sentences] == list(enumerate([
        "Nora Hale wrote for The Daily Post.", "Was born in Leeds.", *sentences,
    ]))
    assert [tuple(span_text(ctx, span) for span in triple) for triple in ctx.triples] == [
        ("Nora Hale", "wrote for", "The Daily Post"),
        ("The barn", "was", "red"),
        ("The city", "was named", "after its river"),
        ("The red barn", "burned", "down"),
    ]


def test_record_context_prefers_curated_annotations():
    record = parse_record(remake_record_doc())
    ctx = record_context(record)
    # The curated annotation carries the coref cluster; the fallback never does.
    assert len(ctx.coref_clusters) == 1


def test_longest_common_run_matches_the_full_table():
    rng = random.Random(0)
    words = ["a", "b", "c", "", "the"]
    for _ in range(3000):
        a = [rng.choice(words) for _ in range(rng.randint(0, 10))]
        b = [rng.choice(words) for _ in range(rng.randint(0, 10))]
        assert _longest_common_run(a, b) == oracle_longest_common_run(a, b), (a, b)


def test_each_text_is_tokenized_once_per_record(monkeypatch):
    """Both QA calls on a record share one tokenizing of its context's
    sentences, and locate_chain tokenizes each node once, through the
    graph's lookup table."""
    record = parse_record(remake_record_doc())
    phase: list[str] = []
    seen: dict[str, list[str]] = {"qa": [], "locate": []}

    def counted(tokenize):
        def wrapped(text):
            if phase:
                seen[phase[-1]].append(text)
            return tokenize(text)
        return wrapped

    for name in ("content_tokens", "clean_tokens"):
        monkeypatch.setattr(builder, name, counted(getattr(builder, name)))
    monkeypatch.setattr(hopqg.graph, "match_tokens", counted(hopqg.graph.match_tokens))

    suite = rule_suite()
    answer, questions = suite.qa.answer, []

    def qa_answer(question, context):
        questions.append(question)
        phase.append("qa")
        try:
            return answer(question, context)
        finally:
            phase.pop()

    # Wrapped on the instance, as a tracer wraps a suite's members.
    suite.qa.answer = qa_answer
    locate, graphs = builder.locate_chain, []

    def locate_chain(graph, a2, q1_subq, other_subq, tag):
        graphs.append((graph, q1_subq, other_subq))
        phase.append("locate")
        try:
            return locate(graph, a2, q1_subq, other_subq, tag)
        finally:
            phase.pop()

    monkeypatch.setattr(builder, "locate_chain", locate_chain)
    example, _ = process_record(record, suite)
    assert type(example) is TrainingExample

    sentences = builder._SENT_SPLIT_RE.split(record_context(record).context)
    assert len(sentences) == 3 and len(questions) == 2
    assert [seen["qa"].count(s) for s in sentences] == [1, 1, 1]
    assert sorted(t for t in seen["qa"] if t not in sentences) == sorted(questions)
    [(graph, q1_subq, other_subq)] = graphs
    node_texts = [t for t in seen["locate"] if t not in (q1_subq, other_subq)]
    assert len(graph.nodes) == 4
    # Every node is tokenized, for the lookups of the middle and leaf nodes.
    assert len(node_texts) == len(graph.nodes)
    assert len(set(node_texts)) == len(node_texts)


def test_rule_qa_answers_as_a_fresh_one_across_contexts_and_threads():
    docs = (remake_record_doc(), prize_record_doc(), novel_record_doc())
    contexts = [record_context(parse_record(doc)).context for doc in docs]
    questions = [
        "To which film A Perfect Murder was a modern remake?",
        "Who directed Dial M for Murder?",
        "Who won the Marlowe Prize?",
        "Who wrote Sea Post?",
    ]
    fresh = {(q, c): RuleQa().answer(q, c) for q in questions for c in contexts}
    assert len(set(fresh.values())) >= 4
    qa = RuleQa()
    for context in (contexts[0], contexts[1], contexts[0]):
        assert [qa.answer(q, context) for q in questions] == [fresh[q, context] for q in questions]
    # One instance, more threads than cores, switching often: each thread
    # keeps its own table.
    rng = random.Random(3)
    jobs = [(q, c) for _ in range(200) for q in questions for c in contexts]
    rng.shuffle(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: qa.answer(*job), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [fresh[job] for job in jobs]


def _lookup_graphs():
    """Fixture graphs, random graphs and the graphs of the golden records."""
    docs = [film_context_doc(), film3_context_doc(), star_context_doc(), remake_context_doc()]
    docs += [random_context_doc(random.Random(seed)) for seed in range(20)]
    graphs = [build_context_graph(AnnotatedContext.from_json(doc)) for doc in docs]
    rng = random.Random(17)
    records = [remake_record_doc(), prize_record_doc(), novel_record_doc(), comparison_record_doc()]
    records += [_golden_record(rng, k) for k in range(35)]
    for doc in records:
        try:
            graphs.append(build_context_graph(record_context(parse_record(doc))))
        except AnnotationError:
            continue
    return graphs


def test_node_lookup_matches_the_rescanning_oracles():
    """find_node and overlap_node on the graph's one table pick the nodes
    that the old per-call rescans picked, with and without exclusions."""
    rng = random.Random(18)
    extra = ["the", "of", "who", "Zebra", "quartet", "film", "IT", " ", "Murder?", "(Blue)", "--"]
    checked = 0
    for graph in _lookup_graphs():
        texts = [t for node in graph.nodes for t in node.all_texts()]
        words = [w for t in texts for w in t.split()] + extra
        for _ in range(40):
            if rng.random() < 0.2:
                query = rng.choice(texts)
                query = rng.choice([query, query.upper(), f"  {query} ", query.swapcase()])
            else:
                query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            try:
                want = oracle_find_node(graph, query)
            except NodeNotFoundError:
                with pytest.raises(NodeNotFoundError):
                    graph.find_node(query)
            else:
                assert graph.find_node(query) is want, query
            tokens = set(content_tokens(query))
            ids = range(len(graph.nodes))
            for exclude in ((), (rng.choice(ids),), tuple(rng.sample(ids, min(2, len(ids))))):
                want = oracle_best_node(graph, tokens, exclude)
                assert graph.overlap_node(tokens, exclude) is want, (query, exclude)
                checked += want is not None
    assert checked > 1000


# --------------------------------------------------------- build-dataset golden

_FIRST = ["Alfred", "Jürgen", "Zoë", "Émile", "Ana-María", "Søren", "İlkay", "Nora", "ＫＥＮ", "Ōta"]
_LAST = ["Hitchcock", "Groß", "Saldaña", "Zola", "O'Neil", "Kierkegaard", "Şahin", "Hale", "ΣΟΦΟΣ", "Lévesque"]
_TITLE = ["Murder", "Straße", "Night", "Train", "Ōkami", "Blue", "Ｔｏｋｙｏ", "Heat", "Wave", "Harbor", "Ocean", "Ĳssel"]


def _golden_record(rng: random.Random, k: int) -> dict:
    """Record k of a fixed set: curated and fallback Bridge records,
    curated Intersection records, fallback Comparison and one-hop records,
    an answer that no sub-answer matches, and a broken annotation, with
    names whose casefolds change length and whitespace outside ASCII."""
    person = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
    a, b = (" ".join(rng.sample(_TITLE, 2)) for _ in range(2))
    if a == b:
        b = f"The {b}"
    year = rng.randint(1950, 2019)
    distractor = (f"Other {k}", [f"Other {k} is a {year} film.", f"{person} directed Other {k}."])
    kind = k % 7
    if kind in (0, 5, 6):
        sep = "\u2028" if kind == 5 else " "
        sents = [
            f"{a} is a {year} American crime film.",
            f"It is a modern remake{sep}of the film {b}.",
            f"{b} was directed by {person}.",
        ]
        annotations = make_context_doc(
            sents,
            [(0, a, "is", f"a {year} American crime film"), (1, "It", f"is a modern remake{sep}of", b),
             (2, b, "was directed by", person)],
            coref=[[(0, a), (1, "It")]],
            named_entities=[(0, a), (1, b), (2, b), (2, person)],
        )
        if kind == 6:
            annotations["triples"][0]["object"]["end"] = len(annotations["context"]) + 5
        answer = person if kind != 5 else f"{person} Jr"
        return hotpot_record_doc(
            f"bridge-{k}", f"Who directed the film to which {a} was a modern remake?", answer,
            [(b, [sents[2]]), distractor, (a, sents[:2])], [(a, 1), (b, 0)], annotations,
        )
    if kind == 1:
        prize = f"The {b.split()[0]} Prize"
        sents = [
            f"{a} is a {year} thriller film.",
            f"{person} starred in {a}.",
            f"{prize} is awarded annually for screen acting.",
            f"{person} won the {b.split()[0]} Prize in {year + 1}.",
        ]
        annotations = make_context_doc(
            sents,
            [(0, a, "is", f"a {year} thriller film"), (1, person, "starred in", a),
             (2, prize, "is awarded annually for", "screen acting"), (3, person, "won", f"the {b.split()[0]} Prize")],
            named_entities=[(0, a), (1, person), (1, a), (2, prize), (3, person)],
        )
        return hotpot_record_doc(
            f"prize-{k}", f"Who starred in {a} and won the {b.split()[0]} Prize?", person,
            [(a, sents[:2]), (prize, sents[2:]), distractor], [(a, 1), (prize, 1)], annotations,
        )
    if kind == 2:
        return hotpot_record_doc(
            f"novel-{k}", f"Who wrote the novel which inspired the film {a}?", person,
            [(a, [f"The film {a} was  inspired by {b}."]), distractor, (b, [f"{person}\u00a0wrote {b}."])],
            [(a, 0), (b, 0)],
        )
    if kind == 3:
        x, y = rng.sample(range(80, 180), 2)
        return hotpot_record_doc(
            f"compare-{k}", f"Which film is longer, {a} or {b}?", a if x > y else b,
            [(a, [f"{a} is a {year} drama film.", f"{a} runs {x} minutes."]),
             (b, [f"{b} is a {year + 1} drama film.", f"{b} runs {y} minutes."])],
            [(a, 1), (b, 1)],
        )
    return hotpot_record_doc(
        f"onehop-{k}", f"Who directed {a}?", person,
        [(a, [f"{a} was directed by {person}."]), (b, [f"{b} is a {year} film."])], [(a, 0), (b, 0)],
    )


# sha256 over the examples and stats files that build-dataset writes for
# the records of _golden_record, at concurrency 1 and at 4, so that no edit
# to dataset construction changes its output silently.
BUILD_DATASET_GOLDEN = "806b0a45b4105407ef629f7e62e27a50e56f06103c51531ce55c04824ab0bd36"


def test_build_dataset_golden_digest(tmp_path):
    rng = random.Random(17)
    records = tmp_path / "records.jsonl"
    lines = [json.dumps(_golden_record(rng, k), ensure_ascii=False) + "\n" for k in range(70)]
    records.write_text("".join(lines), encoding="utf-8")
    digests = []
    for concurrency in (1, 4):
        config = tmp_path / f"config-{concurrency}.json"
        config.write_text(json.dumps({"concurrency": concurrency}))
        out, stats = tmp_path / f"examples-{concurrency}.jsonl", tmp_path / f"stats-{concurrency}.json"
        argv = ["build-dataset", "--hotpot", str(records), "--out", str(out), "--stats", str(stats)]
        # 1: the broken annotations are record errors.
        assert main(argv + ["--config", str(config)]) == 1
        digests.append(hashlib.sha256(out.read_bytes() + stats.read_bytes()).hexdigest())
    summary = json.loads(stats.read_text())
    assert summary["types"] == {"Bridge": 40, "Comparison": 10, "Intersection": 10, "OneHop": 10}
    assert summary["examples"] >= 15 and summary["errors"] == 10
    assert digests == [BUILD_DATASET_GOLDEN] * 2
