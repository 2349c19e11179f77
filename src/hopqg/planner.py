"""Reasoning-chain planning over a context graph.

A chain for difficulty d is a (d+1)-node subtree of the BFS spanning tree
rooted at the sampled answer node, indexed by preorder traversal. Difficulty
counts inference hops: the initial question covers hop 1, every later node
adds one rewrite.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from typing import NamedTuple

from .errors import InsufficientContextError, PlanningError
from .graph import ContextGraph, Edge, Node


class RewriteType(str, Enum):
    BRIDGE = "Bridge"
    INTERSECTION = "Intersection"


class EdgeDirection(str, Enum):
    CHILD_TO_PARENT = "child_to_parent"  # the edge points N_i -> N_parent(i)
    PARENT_TO_CHILD = "parent_to_child"


class ChainNode(NamedTuple):
    index: int
    node_id: int
    surface: str
    parent: int | None = None
    edge_text: str | None = None
    edge_direction: EdgeDirection | None = None
    sentence: int | None = None
    rewrite_type: RewriteType | None = None

    @classmethod
    def hop(
        cls, index: int, node: Node, parent: int, edge: Edge, rewrite_type: RewriteType | None
    ) -> "ChainNode":
        """Chain node `index` for graph `node`, joined to chain node `parent` by
        `edge`; the hop runs child to parent when the edge starts at `node`."""
        direction = (
            EdgeDirection.CHILD_TO_PARENT if edge.source == node.id else EdgeDirection.PARENT_TO_CHILD
        )
        return cls(
            index, node.id, node.surface, parent, edge.relation, direction, edge.sentence_index, rewrite_type
        )


class ReasoningChain(NamedTuple):
    nodes: list[ChainNode]
    d: int

    @property
    def answer_surface(self) -> str:
        return self.nodes[0].surface

    def to_json(self) -> dict:
        return {
            "answer_node": self.nodes[0].node_id,
            "d": self.d,
            "nodes": [
                {
                    "i": n.index,
                    "surface": n.surface,
                    "parent": n.parent,
                    "edge": n.edge_text,
                    "edge_dir": n.edge_direction.value if n.edge_direction else None,
                    "sentence": n.sentence,
                    "rewrite_type": n.rewrite_type.value if n.rewrite_type else None,
                }
                for n in self.nodes
            ],
        }


class SpanningTree(NamedTuple):
    root: int
    # child node id -> (parent node id, connecting edge)
    parent: dict[int, tuple[int, Edge]]
    # node id -> its children in BFS discovery order; one entry per tree node
    children: dict[int, list[int]]

    def size(self) -> int:
        return len(self.children)


def sample_answer_node(graph: ContextGraph, seed: int) -> int:
    """Uniform seeded choice among eligible answer nodes."""
    eligible = graph.answer_nodes
    if not eligible:
        raise PlanningError("no eligible answer node: need a named-entity-linked node with degree > 1")
    return random.Random(seed).choice(eligible)


def _edge_sort_key(graph: ContextGraph, incident: tuple[Edge, int]):
    edge, other = incident
    direction = 0 if edge.source == other else 1
    return (edge.sentence_index, graph.node(other).surface, edge.relation, direction)


def spanning_tree(graph: ContextGraph, root: int, depth: int | None = None) -> SpanningTree:
    """Breadth-first spanning tree of the undirected view, deterministic ties.

    All relations carry unit weight, so a maximum spanning tree over the
    component is any spanning tree; BFS keeps chains as short-path trees.
    Neighbor visit order: lower edge sentence index, then neighbor surface.
    With `depth`, nodes at that depth are not expanded: the tree holds
    layers 0..depth of the full tree, with the same parents and child order.
    """
    parent: dict[int, tuple[int, Edge]] = {}
    children: dict[int, list[int]] = {root: []}
    queue = deque([(root, 0)])
    while queue:
        u, level = queue.popleft()
        if level == depth:
            continue
        kids = children[u]
        for edge, other in sorted(graph.incident(u), key=lambda eo: _edge_sort_key(graph, eo)):
            if other not in children:
                parent[other] = (u, edge)
                kids.append(other)
                children[other] = []
                queue.append((other, level + 1))
    return SpanningTree(root, parent, children)


def _tree_edge_key(graph: ContextGraph, tree: SpanningTree, nid: int):
    return (tree.parent[nid][1].sentence_index, graph.node(nid).surface, nid)


def prune_tree(graph: ContextGraph, tree: SpanningTree, d: int) -> list[int]:
    """Keep root plus d nodes, greedily maximizing distinct source sentences.

    Frontier nodes whose connecting edge adds a new sentence are preferred;
    ties resolve by sentence order, then node surface. Returns kept node ids.
    """
    if d < 1:
        raise PlanningError(f"difficulty must be >= 1, got {d}")
    if tree.size() < d + 1:
        raise InsufficientContextError(
            f"component has {tree.size()} nodes; difficulty {d} needs {d + 1} "
            f"(max attainable d = {tree.size() - 1})",
            max_d=tree.size() - 1,
        )
    kept = [tree.root]
    covered: set[int] = set()
    frontier = set(tree.children[tree.root])
    for _ in range(d):
        fresh = [n for n in frontier if tree.parent[n][1].sentence_index not in covered]
        chosen = min(fresh or frontier, key=lambda n: _tree_edge_key(graph, tree, n))
        kept.append(chosen)
        covered.add(tree.parent[chosen][1].sentence_index)
        frontier.discard(chosen)
        frontier.update(tree.children[chosen])
    return kept


def index_chain(graph: ContextGraph, tree: SpanningTree, kept: list[int], d: int) -> ReasoningChain:
    """Preorder-index the kept subtree; children ordered by (sentence, surface).

    Node i >= 2 is a Bridge iff it is the first child of its parent, else an
    Intersection; the answer node and the first hop carry no rewrite type.
    """
    kept_set = set(kept)
    nodes: list[ChainNode] = []
    # (node id, parent's chain index, first child of that parent), popped in preorder
    stack: list[tuple[int, int | None, bool]] = [(tree.root, None, False)]
    while stack:
        nid, parent_index, first = stack.pop()
        i = len(nodes)
        if parent_index is None:
            nodes.append(ChainNode(i, nid, graph.node(nid).surface))
        else:
            rewrite = None if i < 2 else RewriteType.BRIDGE if first else RewriteType.INTERSECTION
            nodes.append(ChainNode.hop(i, graph.node(nid), parent_index, tree.parent[nid][1], rewrite))
        kids = sorted(
            (c for c in tree.children[nid] if c in kept_set), key=lambda c: _tree_edge_key(graph, tree, c)
        )
        stack.extend(reversed([(c, i, k == 0) for k, c in enumerate(kids)]))
    assert len(nodes) == len(kept) == d + 1
    return ReasoningChain(nodes, d)


def plan_chain(
    graph: ContextGraph,
    d: int,
    seed: int = 0,
    answer_text: str | None = None,
) -> ReasoningChain:
    """Sample (or pin) an answer node and plan a difficulty-d chain."""
    if answer_text is not None:
        root = graph.find_node(answer_text).id
    else:
        root = sample_answer_node(graph, seed)
    # Every kept node lies within depth d. A depth-d tree smaller than d + 1
    # nodes has an empty layer, so it is the whole component and gives max_d.
    tree = spanning_tree(graph, root, d)
    kept = prune_tree(graph, tree, d)
    return index_chain(graph, tree, kept, d)
