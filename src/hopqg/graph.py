"""Context graph construction from annotated triples and coreference clusters.

Every triple contributes two nodes (subject and object) and one directed,
relation-labeled edge. Argument spans with the same normalized text share a
node, except pronouns, which start with a node per span; coreference
clusters then merge nodes across differing surfaces. The canonical node
surface is the longest non-pronominal mention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .context import AnnotatedContext, Span
from .errors import NodeNotFoundError
from .textutil import PRONOUNS, collapse, is_pronoun, match_tokens, norm_key

# Lowercase tokens tolerated inside a capitalized run ("Dial M for Murder").
_NAME_CONNECTORS = {"of", "for", "the", "and", "de", "la", "von", "van", "da"}


@dataclass
class Node:
    id: int
    surface: str
    mentions: list[Span]
    mention_texts: list[str]
    is_named_entity: bool = False
    entity_link: int | None = None

    def all_texts(self) -> list[str]:
        return [self.surface] + self.mention_texts


class Edge(NamedTuple):
    source: int
    target: int
    relation: str
    sentence_index: int


@dataclass
class ContextGraph:
    context: AnnotatedContext
    nodes: list[Node]
    edges: list[Edge]
    _incident: dict[int, list[tuple[Edge, int]]] = field(default_factory=dict, repr=False)
    # Ids of the nodes a chain may be planned around, ascending. Like the
    # rest of the graph, only read once built, so threads share it unlocked.
    answer_nodes: tuple[int, ...] = field(default=(), init=False, repr=False)
    # norm_key of every surface and mention -> its first node in id order.
    # Threads that build it at once build equal dicts, so it needs no lock.
    _exact: dict[str, Node] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for e in self.edges:
            self._incident.setdefault(e.source, []).append((e, e.target))
            self._incident.setdefault(e.target, []).append((e, e.source))
        eligible = []
        for node in self.nodes:
            others = {other for _, other in self.incident(node.id)}
            # A non-entity node links to its lowest-id named-entity neighbour.
            node.entity_link = None if node.is_named_entity else min(
                (o for o in others if self.nodes[o].is_named_entity), default=None
            )
            if len(others) > 1 and (node.is_named_entity or node.entity_link is not None):
                eligible.append(node.id)
        self.answer_nodes = tuple(eligible)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def incident(self, node_id: int) -> list[tuple[Edge, int]]:
        """All edges touching node_id, paired with the opposite endpoint; do not mutate."""
        return self._incident.get(node_id, [])

    def edges_between(self, a: int, b: int) -> list[Edge]:
        return [e for e, other in self.incident(a) if other == b]

    def find_node(self, text: str) -> Node:
        """Locate the node best matching text.

        Exact normalized match against any surface or mention wins; otherwise
        the node with the highest token overlap. Ties go to the lowest node id;
        zero overlap raises NodeNotFoundError.
        """
        exact = self._exact
        if exact is None:
            # Built on the first call, so planning without --answer pays nothing.
            exact = {}
            for node in self.nodes:
                for t in node.all_texts():
                    exact.setdefault(norm_key(t), node)
            self._exact = exact
        hit = exact.get(norm_key(text))
        if hit is not None:
            return hit
        qtokens = set(match_tokens(text))
        best, best_score = None, 0
        for node in self.nodes:
            ntokens: set[str] = set()
            for t in node.all_texts():
                ntokens.update(match_tokens(t))
            score = len(qtokens & ntokens)
            if score > best_score:
                best, best_score = node, score
        if best is None:
            raise NodeNotFoundError(f"no node overlaps {text!r}")
        return best

    def to_json(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "surface": n.surface,
                    "is_named_entity": n.is_named_entity,
                    "entity_link": n.entity_link,
                    "mentions": [dict(m.to_json(), text=t) for m, t in zip(n.mentions, n.mention_texts)],
                }
                for n in self.nodes
            ],
            "edges": [
                {"source": e.source, "target": e.target, "relation": e.relation, "sentence": e.sentence_index}
                for e in self.edges
            ],
        }


def _spans_match(a: Span, b: Span) -> bool:
    # Same sentence and containment in either direction; tolerates small
    # boundary disagreements between annotation layers.
    if a.sent != b.sent:
        return False
    return (b.start <= a.start and a.end <= b.end) or (a.start <= b.start and b.end <= a.end)


def _capitalized_run(text: str, span: Span, ctx: AnnotatedContext) -> bool:
    tokens = text.split()
    if not tokens:
        return False
    caps = 0
    for i, tok in enumerate(tokens):
        core = tok.strip(".,;:!?'\"()")
        if not core:
            return False
        if core[0].isupper():
            caps += 1
        elif core.lower() in _NAME_CONNECTORS and 0 < i < len(tokens) - 1:
            continue
        else:
            return False
    if caps == 0:
        return False
    # A lone capitalized token at the sentence start is not evidence.
    if len(tokens) == 1 and span.start == ctx.sentences[span.sent].char_start:
        return False
    return True


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: smaller creation index becomes the root.
            lo, hi = min(ra, rb), max(ra, rb)
            self.parent[hi] = lo


def build_context_graph(ctx: AnnotatedContext) -> ContextGraph:
    """Build the merged, deduplicated context graph for an annotated context."""
    key_to_group: dict[str | Span, int] = {}
    # Per group: each argument span, in first-seen order, with its collapsed text.
    group_mentions: list[dict[Span, str]] = []
    raw_edges: list[tuple[int, int, str, int]] = []

    def group_of(span: Span) -> int:
        text = collapse(ctx.span_text(span))
        key: str | Span = text.casefold()  # norm_key(text), as text is already collapsed
        if key in PRONOUNS:  # is_pronoun(text)
            # A pronoun names nothing by itself; only a coreference cluster
            # may merge it, so each one keeps a group of its own.
            key = span
        gid = key_to_group.get(key)
        if gid is None:
            gid = len(group_mentions)
            key_to_group[key] = gid
            group_mentions.append({})
        group_mentions[gid][span] = text
        return gid

    for t in ctx.triples:
        src = group_of(t.subject)
        dst = group_of(t.object)
        raw_edges.append((src, dst, collapse(ctx.span_text(t.relation)), t.sentence_index))

    # A cluster mention can only match group mentions of its own sentence.
    mentions_by_sent: dict[int, list[tuple[Span, int]]] = {}
    for gid, mentions in enumerate(group_mentions):
        for m in mentions:
            mentions_by_sent.setdefault(m.sent, []).append((m, gid))

    uf = _UnionFind(len(group_mentions))
    for cluster in ctx.coref_clusters:
        # The matching groups in ascending order, as an all-pairs scan lists them.
        matched = sorted({
            gid
            for cm in cluster
            for m, gid in mentions_by_sent.get(cm.sent, ())
            if _spans_match(m, cm)
        })
        for gid in matched[1:]:
            uf.union(matched[0], gid)

    # Merged groups keyed by root, ordered by earliest creation index.
    roots: list[int] = []
    members: dict[int, list[int]] = {}
    for gid in range(len(group_mentions)):
        root = uf.find(gid)
        if root not in members:
            members[root] = []
            roots.append(root)
        members[root].append(gid)
    root_to_id = {root: i for i, root in enumerate(roots)}

    nodes: list[Node] = []
    for root, node_id in root_to_id.items():
        text_of: dict[Span, str] = {}
        for gid in members[root]:
            text_of.update(group_mentions[gid])
        mentions = sorted(text_of)
        texts = [text_of[m] for m in mentions]
        non_pronoun = [(t, m) for t, m in zip(texts, mentions) if not is_pronoun(t)]
        pool = non_pronoun or list(zip(texts, mentions))
        surface = max(pool, key=lambda tm: (len(tm[0]), (-tm[1].sent, -tm[1].start)))[0]
        nodes.append(Node(node_id, surface, mentions, texts))

    edges: dict[Edge, None] = {}  # distinct edges in first-seen order
    for src, dst, rel, sent in raw_edges:
        s = root_to_id[uf.find(src)]
        d = root_to_id[uf.find(dst)]
        if s != d:  # a merge can make a self-loop; drop it
            edges.setdefault(Edge(s, d, rel, sent))

    if ctx.named_entities is not None:
        nes_by_sent: dict[int, list[Span]] = {}
        for ne in ctx.named_entities:
            nes_by_sent.setdefault(ne.sent, []).append(ne)
        for node in nodes:
            node.is_named_entity = any(
                _spans_match(m, ne) for m in node.mentions for ne in nes_by_sent.get(m.sent, ())
            )
    else:
        for node in nodes:
            node.is_named_entity = any(
                _capitalized_run(t, m, ctx) for t, m in zip(node.mention_texts, node.mentions)
            )

    return ContextGraph(ctx, nodes, list(edges))
