import gc
import hashlib
import json
import random
import weakref

import pytest

from hopqg.context import AnnotatedContext
from hopqg.errors import InsufficientContextError, PlanningError
from hopqg.graph import ContextGraph, Edge, Node, build_context_graph
from hopqg.planner import (
    EdgeDirection,
    RewriteType,
    eligible_answer_nodes,
    index_chain,
    plan_chain,
    prune_tree,
    sample_answer_node,
    spanning_tree,
)

from util import film3_context_doc, film_context_doc, remake_context_doc, star_context_doc


def dummy_graph(n_nodes, edges, ne_ids=()):
    ctx = AnnotatedContext("", [], [])
    nodes = [Node(i, f"entity {i:02d}", [], [], is_named_entity=i in ne_ids) for i in range(n_nodes)]
    return ContextGraph(ctx, nodes, [Edge(*e) for e in edges])


def random_planner_graph(rng: random.Random, n_nodes: int) -> ContextGraph:
    """Connected random graph with at least one eligible answer node."""
    edges = []
    rel = 0
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        src, dst = (i, j) if rng.random() < 0.5 else (j, i)
        edges.append((src, dst, f"rel{rel}", rng.randrange(n_nodes)))
        rel += 1
    for _ in range(rng.randrange(n_nodes // 2 + 1)):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            edges.append((a, b, f"rel{rel}", rng.randrange(n_nodes)))
            rel += 1
    # guarantee node 0 has degree > 1 and mark a few named entities
    neighbors = {e[1] for e in edges if e[0] == 0} | {e[0] for e in edges if e[1] == 0}
    while len(neighbors) < 2:
        b = rng.randrange(1, n_nodes)
        if b not in neighbors:
            edges.append((0, b, f"rel{rel}", rng.randrange(n_nodes)))
            neighbors.add(b)
            rel += 1
    ne_ids = {0} | {rng.randrange(n_nodes) for _ in range(3)}
    return dummy_graph(n_nodes, edges, ne_ids)


def check_chain_invariants(graph: ContextGraph, chain, d: int):
    assert len(chain.nodes) == d + 1
    assert chain.nodes[0].parent is None and chain.nodes[0].rewrite_type is None
    first_child = {}
    for n in chain.nodes[1:]:
        assert n.parent is not None and n.parent < n.index, "preorder: parents precede children"
        between = graph.edges_between(chain.nodes[n.parent].node_id, n.node_id)
        matching = [
            e for e in between
            if e.relation == n.edge_text and e.sentence_index == n.sentence
        ]
        assert matching, "chain edge must exist in the graph"
        if n.edge_direction is EdgeDirection.CHILD_TO_PARENT:
            assert any(e.source == n.node_id for e in matching)
        else:
            assert any(e.target == n.node_id for e in matching)
        first_child.setdefault(n.parent, n.index)
        if n.index >= 2:
            expected = RewriteType.BRIDGE if first_child[n.parent] == n.index else RewriteType.INTERSECTION
            assert n.rewrite_type is expected
    assert chain.nodes[1].rewrite_type is None


def test_eligibility_film(film_graph):
    ids = eligible_answer_nodes(film_graph)
    names = {film_graph.node(i).surface for i in ids}
    assert names == {"Top Gun", "Tom Cruise"}


def test_sampling_is_seeded_and_covers_support(film_graph):
    assert sample_answer_node(film_graph, 7) == sample_answer_node(film_graph, 7)
    picked = {film_graph.node(sample_answer_node(film_graph, s)).surface for s in range(40)}
    assert picked == {"Top Gun", "Tom Cruise"}


def test_sampling_no_eligible_raises():
    g = dummy_graph(2, [(0, 1, "rel", 0)], ne_ids={0, 1})
    with pytest.raises(PlanningError):
        sample_answer_node(g, 0)


def test_film_plan_d2_takes_direction_hop(film_graph):
    chain = plan_chain(film_graph, d=2, answer_text="Tom Cruise")
    assert [n.surface for n in chain.nodes] == ["Tom Cruise", "Top Gun", "Tony Scott"]
    assert chain.nodes[1].edge_text == "starred"
    assert chain.nodes[1].edge_direction is EdgeDirection.CHILD_TO_PARENT
    assert chain.nodes[2].edge_text == "is directed by"
    assert chain.nodes[2].edge_direction is EdgeDirection.PARENT_TO_CHILD
    assert chain.nodes[2].rewrite_type is RewriteType.BRIDGE


def test_insufficient_context_reports_max_d(film_graph):
    root = film_graph.find_node("Tom Cruise").id
    tree = spanning_tree(film_graph, root)
    with pytest.raises(InsufficientContextError) as exc_info:
        prune_tree(film_graph, tree, d=9)
    assert exc_info.value.max_d == 4


def test_prune_prefers_fresh_sentences():
    # star: five leaves, two of them share the center's first sentence
    edges = [
        (1, 0, "r0", 0), (2, 0, "r1", 0), (3, 0, "r2", 1),
        (4, 0, "r3", 2), (5, 0, "r4", 3),
    ]
    g = dummy_graph(6, edges, ne_ids={0})
    tree = spanning_tree(g, 0)
    kept = prune_tree(g, tree, d=3)
    sentences = sorted(tree.parent[n][1].sentence_index for n in kept if n != 0)
    assert sentences == [0, 1, 2], "three distinct sentences beat a duplicate"


def test_prune_exhausts_distinct_sentences_then_falls_back():
    edges = [(1, 0, "r0", 0), (2, 0, "r1", 0), (3, 0, "r2", 1)]
    g = dummy_graph(4, edges, ne_ids={0})
    kept = prune_tree(g, spanning_tree(g, 0), d=3)
    assert set(kept) == {0, 1, 2, 3}


def test_linear_three_hop_types(film3_ctx):
    from hopqg.graph import build_context_graph

    g = build_context_graph(film3_ctx)
    chain = plan_chain(g, d=3, answer_text="Tom Cruise")
    assert [n.surface for n in chain.nodes] == ["Tom Cruise", "Top Gun", "Tony Scott", "North Shields"]
    assert [n.rewrite_type for n in chain.nodes[2:]] == [RewriteType.BRIDGE, RewriteType.BRIDGE]


def test_star_three_hop_types(star_ctx):
    from hopqg.graph import build_context_graph

    g = build_context_graph(star_ctx)
    chain = plan_chain(g, d=3, seed=0)
    assert chain.answer_surface == "Marie Dubois"
    assert [n.surface for n in chain.nodes[1:]] == ["Silver Lake", "the Lyon Conservatory", "Anna Keller"]
    assert [n.rewrite_type for n in chain.nodes[2:]] == [RewriteType.INTERSECTION, RewriteType.INTERSECTION]


def test_random_graph_invariant_sweep():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randrange(5, 41)
        g = random_planner_graph(rng, n)
        for d in (1, 2, 3, 4):
            chain = plan_chain(g, d=d, seed=rng.randrange(10**6))
            check_chain_invariants(g, chain, d)


def test_plan_is_deterministic(film_graph):
    a = plan_chain(film_graph, d=2, seed=11).to_json()
    b = plan_chain(film_graph, d=2, seed=11).to_json()
    assert a == b


def test_index_chain_preorder_orders_children_by_sentence():
    edges = [(1, 0, "r0", 2), (2, 0, "r1", 0), (3, 0, "r2", 1), (4, 2, "r3", 3)]
    g = dummy_graph(5, edges, ne_ids={0})
    tree = spanning_tree(g, 0)
    assert tree.children == {0: [2, 3, 1], 1: [], 2: [4], 3: [], 4: []}
    chain = index_chain(g, tree, [0, 1, 2, 3], 3)
    assert [n.node_id for n in chain.nodes] == [0, 2, 3, 1]
    assert [n.rewrite_type for n in chain.nodes] == [
        None, None, RewriteType.INTERSECTION, RewriteType.INTERSECTION
    ]
    chain = index_chain(g, tree, [0, 1, 2, 3, 4], 4)
    assert [n.node_id for n in chain.nodes] == [0, 2, 4, 3, 1]
    assert [n.parent for n in chain.nodes] == [None, 0, 1, 0, 0]
    assert [n.rewrite_type for n in chain.nodes] == [
        None, None, RewriteType.BRIDGE, RewriteType.INTERSECTION, RewriteType.INTERSECTION
    ]


# sha256 over the plans (or planning errors) of the seeded sweep below, so that
# no planner edit changes a plan silently.
PLAN_GOLDEN = "9125c4e0fa09c5780556722e2346d8d4c48f6316ca33a84942ebf8341cc5ab9f"


def _plan_record(graph: ContextGraph, d: int, seed: int, answer_text=None):
    try:
        return plan_chain(graph, d, seed=seed, answer_text=answer_text).to_json()
    except PlanningError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "max_d", None)]


def test_plan_golden_digest():
    digest = hashlib.sha256()
    records = []
    rng = random.Random(5150)
    for _ in range(120):
        g = random_planner_graph(rng, rng.randrange(3, 31))
        pinned = g.node(rng.randrange(len(g.nodes))).surface
        for d in (0, 1, 2, 3, 4, 6):
            records.append(_plan_record(g, d, rng.randrange(10**6)))
            records.append(_plan_record(g, d, 0, answer_text=pinned))
    for doc in (film_context_doc(), film3_context_doc(), star_context_doc(), remake_context_doc()):
        g = build_context_graph(AnnotatedContext.from_json(doc))
        for d in range(1, 6):
            for seed in range(6):
                records.append(_plan_record(g, d, seed))
            for node in g.nodes:
                records.append(_plan_record(g, d, 0, answer_text=node.surface))
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == PLAN_GOLDEN


def test_plan_chain_leaves_no_reference_cycle(film_ctx):
    graph = build_context_graph(film_ctx)
    alive = weakref.ref(graph)
    gc.disable()
    try:
        plan_chain(graph, d=3, answer_text="Tom Cruise")
        del graph
        assert alive() is None, "planning must not leave a cycle holding the graph"
    finally:
        gc.enable()
