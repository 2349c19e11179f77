"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. Everything here runs offline: template backend, rule backends
and scripted stubs only.
"""

import json
import random
import time

import pytest

from hopqg.context import AnnotatedContext
from hopqg.dataset_builder import ReasoningTypeTag, TrainingExample, process_record
from hopqg.errors import HopqgError
from hopqg.evaluate import difficulty_probe, filter_generated
from hopqg.graph import ContextGraph, Edge, Node, build_context_graph
from hopqg.hotpot import parse_record
from hopqg.metrics import bleu_n, cider, meteor_simplified, normalize_answer, rouge_l
from hopqg.planner import RewriteType, plan_chain, sample_answer_node
from hopqg.template import TemplateBackend
from hopqg.cli import main as cli_main

from oracles import oracle_bleu, oracle_cider, oracle_meteor, oracle_rouge_l, parse_input
from test_geninput import random_input
from test_metrics import METEOR_GOLDENS, random_corpus
from util import (
    film3_context_doc,
    film_context_doc,
    generate_for_context,
    remake_record_doc,
    rule_suite,
    star_context_doc,
)


# -------------------------------------------------- 1. planner property suite


def random_connected_graph(rng: random.Random) -> ContextGraph:
    n = rng.randint(5, 40)
    nodes = [
        Node(
            id=i,
            surface=f"Entity {i}",
            mentions=[],
            mention_texts=[],
            is_named_entity=rng.random() < 0.6,
        )
        for i in range(n)
    ]

    def edge(a: int, b: int) -> Edge:
        if rng.random() < 0.5:
            a, b = b, a
        return Edge(a, b, f"rel {rng.randint(0, 5)}", rng.randint(0, n))

    edges = [edge(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append(edge(a, b))
    empty = AnnotatedContext("", [], [], [], None)
    return ContextGraph(empty, nodes, edges)


def check_plan_properties(graph: ContextGraph, chain, d: int) -> None:
    assert len(chain.nodes) == d + 1
    assert chain.d == d
    for i, node in enumerate(chain.nodes):
        assert node.index == i
        if i == 0:
            assert node.parent is None
            continue
        # Preorder monotonicity: every parent precedes its child.
        assert 0 <= node.parent < i
        edges = graph.edges_between(node.node_id, chain.nodes[node.parent].node_id)
        assert any(
            e.relation == node.edge_text and e.sentence_index == node.sentence
            for e in edges
        )
        if i == 1:
            # Step 1 is the initial question, not a rewrite; its serialized
            # input carries no type block, so node 1 has no rewrite type.
            assert node.rewrite_type is None
            continue
        first_child = next(n.index for n in chain.nodes if n.parent == node.parent)
        want = RewriteType.BRIDGE if node.index == first_child else RewriteType.INTERSECTION
        assert node.rewrite_type is want
    assert len({n.node_id for n in chain.nodes}) == d + 1


def test_criterion_1_planner_properties_on_random_graphs():
    rng = random.Random(2024)
    start = time.perf_counter()
    plans = 0
    for g in range(200):
        graph = random_connected_graph(rng)
        for d in (1, 2, 3, 4):
            try:
                chain = plan_chain(graph, d, seed=g * 7 + d)
            except HopqgError:
                continue
            check_plan_properties(graph, chain, d)
            plans += 1
    elapsed = time.perf_counter() - start
    assert plans >= 200
    assert elapsed < 10.0


# ----------------------------------------------------- 2. two-hop golden text


def test_criterion_2_two_hop_question_hides_intermediates():
    ctx = AnnotatedContext.from_json(film_context_doc())
    graph = build_context_graph(ctx)
    target = graph.find_node("Tom Cruise").id
    seed = next(s for s in range(500) if sample_answer_node(graph, s) == target)
    trace = generate_for_context(ctx, d=2, seed=seed, backend=TemplateBackend())
    assert trace.answer == "Tom Cruise"
    q2 = trace.question
    assert "directed by Tony Scott" in q2
    assert "Top Gun" not in q2
    assert "Tom Cruise" not in q2


# ------------------------------------------- 3. dataset-construction golden


def test_criterion_3_two_hop_record_decomposition_golden():
    record = parse_record(remake_record_doc())
    example, _ = process_record(record, rule_suite())
    assert type(example) is TrainingExample
    assert example.rewrite_type is ReasoningTypeTag.BRIDGE
    assert example.q1 == "Who directed Dial M for Murder?"
    assert normalize_answer(example.a1) == normalize_answer("Alfred Hitchcock")
    assert [n.surface for n in example.chain.nodes] == [
        "Alfred Hitchcock",
        "Dial M for Murder",
        "A Perfect Murder",
    ]
    assert example.chain.nodes[1].parent == 0 and example.chain.nodes[2].parent == 1


# --------------------------------------------------- 4. metric oracle parity


def test_criterion_4_metrics_match_independent_oracles():
    rng = random.Random(404)
    for _ in range(50):
        corpus = random_corpus(rng, items=rng.randint(2, 8))
        for n in (1, 2, 3, 4):
            assert abs(bleu_n(corpus, n) - oracle_bleu(corpus, n)) <= 1e-9
        assert abs(cider(corpus) - oracle_cider(corpus)) <= 1e-9
        for hyp, refs in corpus:
            for ref in refs:
                assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp, ref)) <= 1e-9

    # Identity pairs need >= 4 tokens each so every n-gram order is populated,
    # and disjoint vocabularies so no tf-idf dimension collapses to zero df.
    identity = [("who directed top gun ?", ["who directed top gun ?"]),
                ("tom cruise starred in films", ["tom cruise starred in films"])]
    for n in (1, 2, 3, 4):
        assert bleu_n(identity, n) == pytest.approx(1.0)
    assert rouge_l("a b c d", "a b c d") == pytest.approx(1.0)
    assert meteor_simplified("a b c d", "a b c d") == pytest.approx(1.0)
    assert cider(identity) == pytest.approx(10.0)

    for hyp, ref, want in METEOR_GOLDENS:
        assert abs(meteor_simplified(hyp, ref) - want) <= 1e-9
        assert abs(oracle_meteor(hyp, ref) - want) <= 1e-9


# ------------------------------------------------------- 5. filter fidelity


def test_criterion_5_filter_drops_exactly_the_labeled_items():
    rng = random.Random(55)

    def question_of(words: int, extra: str = "") -> str:
        base = [f"w{rng.randint(0, 99)}" for _ in range(words)]
        if extra:
            slot = rng.randint(0, len(base) - 1)
            base[slot] = extra
        return " ".join(base)

    items = []
    for i in range(1000):
        kind = ("keep", "length", "leak")[i % 3] if i >= 4 else "keep"
        if i < 4:
            # Pin both boundaries into the corpus: 6 and 30 words kept.
            words = (6, 30, 6, 30)[i]
            items.append({"question": question_of(words), "answer": f"zq{i}", "label": "keep"})
            continue
        if kind == "keep":
            items.append({
                "question": question_of(rng.randint(6, 30)),
                "answer": f"zq{i}",
                "label": "keep",
            })
        elif kind == "length":
            words = rng.choice((1, 2, 3, 4, 5, 31, 40, 77))
            items.append({
                "question": question_of(words),
                "answer": f"zq{i}",
                "label": "length",
            })
        else:
            answer = f"ans{i}"
            items.append({
                "question": question_of(rng.randint(6, 30), extra=answer),
                "answer": answer.upper() + "!",
                "label": "leak",
            })

    kept, dropped = filter_generated(items)
    assert len(items) == 1000
    assert all(item["label"] == "keep" for item in kept)
    assert all(item["label"] == reason for item, reason in dropped)
    assert len(kept) == sum(1 for i in items if i["label"] == "keep")
    assert {len(i["question"].split()) for i in kept} >= {6, 30}


# ----------------------------------------- 6. difficulty-control direction


class ScriptedSingleHopQa:
    """Answers correctly iff the trace's chain is single-hop.

    The decision uses the trace's chain metadata, looked up by question
    text; the question/context channel itself never carries the depth.
    """

    name = "scripted-single-hop"

    def __init__(self, traces: list[dict]):
        self._by_question = {t["question"]: t for t in traces}

    def answer(self, question: str, context: str) -> str:
        trace = self._by_question[question]
        if len(trace["chain"]["nodes"]) == 2:
            return trace["answer"]
        return "unknown entity"


def test_criterion_6_probe_separates_single_from_two_hop():
    docs = [film_context_doc(), film3_context_doc(), star_context_doc()]
    traces = []
    for doc in docs:
        ctx = AnnotatedContext.from_json(doc)
        for d in (1, 2):
            for seed in (0, 1, 2):
                trace = generate_for_context(ctx, d=d, seed=seed, backend=TemplateBackend())
                traces.append(trace.to_json())
    result = difficulty_probe(traces, ScriptedSingleHopQa(traces), concurrency=4)
    assert result.failures == 0 and not result.incomplete
    assert result.buckets[1].count > 0 and result.buckets[2].count > 0
    assert result.buckets[1].em == pytest.approx(1.0)
    assert result.buckets[2].em == pytest.approx(0.0)
    assert result.buckets[1].em > result.buckets[2].em


# --------------------------------------- 7. round-trips and rerun identity


def test_criterion_7_round_trips_and_seeded_rerun_identity(tmp_path):
    rng = random.Random(1234)
    for _ in range(1000):
        gi = random_input(rng)
        back = parse_input(gi.text, step=gi.step, parent_aliases=gi.parent_aliases)
        assert back == gi and back.text == gi.text and back.segments == gi.segments

    ctx_path = tmp_path / "contexts.json"
    ctx_path.write_text(json.dumps([film_context_doc(), film3_context_doc(), star_context_doc()]))
    outs = []
    for name in ("a", "b"):
        traces = tmp_path / f"traces_{name}.jsonl"
        kept = tmp_path / f"kept_{name}.jsonl"
        assert cli_main([
            "generate", "--context", str(ctx_path), "--d", "2", "--seed", "9",
            "--count", "2", "--out", str(traces),
        ]) == 0
        assert cli_main([
            "filter", "--traces", str(traces), "--out", str(kept),
        ]) == 0
        outs.append((traces.read_bytes(), kept.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][0]


# ------------------------------------------------------ 8. three-hop chains


def test_criterion_8_three_hop_questions_cover_all_chain_nodes():
    # "Surface material from a node" covers its surface tokens or its hop's
    # relation text: a bridge rewrite deliberately replaces the parent's
    # name with a descriptive clause (that omission is the point of
    # criterion 2), so the deeper node's lexical trace in the question is
    # its relation plus the clause built from it.
    for doc in (film3_context_doc(), star_context_doc()):
        ctx = AnnotatedContext.from_json(doc)
        trace = generate_for_context(ctx, d=3, seed=1, backend=TemplateBackend())
        assert trace.d == 3
        assert len(trace.questions) == 3
        rewrites = trace.questions[1:]
        assert len(rewrites) == 2
        question = trace.question.lower()
        covered_surfaces = 0
        for node in trace.chain.nodes[1:]:
            material = node.surface.lower().split() + node.edge_text.lower().split()
            content = [w for w in material if w not in ("the", "a", "an", "is", "was")]
            assert any(word in question for word in content), (node.surface, trace.question)
            if node.surface.lower() in question:
                covered_surfaces += 1
        # At least the two leaf-most hops keep their literal surfaces.
        assert covered_surfaces >= 2
