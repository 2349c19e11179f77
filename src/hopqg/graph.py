"""Context graph construction from annotated triples and coreference clusters.

Every triple contributes two nodes (subject and object) and one directed,
relation-labeled edge. Argument spans with the same normalized text share a
node; coreference clusters then merge nodes across differing surfaces. The
canonical node surface is the longest non-pronominal mention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import AnnotatedContext, Span
from .errors import NodeNotFoundError
from .textutil import collapse, is_pronoun, match_tokens, norm_key

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


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    relation: str
    sentence_index: int


@dataclass
class ContextGraph:
    context: AnnotatedContext
    nodes: list[Node]
    edges: list[Edge]
    _incident: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for i, e in enumerate(self.edges):
            self._incident.setdefault(e.source, []).append(i)
            self._incident.setdefault(e.target, []).append(i)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def incident(self, node_id: int) -> list[tuple[Edge, int]]:
        """All edges touching node_id, paired with the opposite endpoint."""
        out = []
        for idx in self._incident.get(node_id, []):
            e = self.edges[idx]
            other = e.target if e.source == node_id else e.source
            out.append((e, other))
        return out

    def undirected_degree(self, node_id: int) -> int:
        """Distinct neighbors when edge direction is ignored; self-loops never exist."""
        return len({other for _, other in self.incident(node_id)})

    def edges_between(self, a: int, b: int) -> list[Edge]:
        return [e for e, other in self.incident(a) if other == b]

    def find_node(self, text: str) -> Node:
        """Locate the node best matching text.

        Exact normalized match against any surface or mention wins; otherwise
        the node with the highest token overlap. Ties go to the lowest node id;
        zero overlap raises NodeNotFoundError.
        """
        key = norm_key(text)
        for node in self.nodes:
            if norm_key(node.surface) == key or any(norm_key(m) == key for m in node.mention_texts):
                return node
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
    key_to_group: dict[str, int] = {}
    group_mentions: list[list[Span]] = []
    raw_edges: list[tuple[int, int, str, int]] = []

    def group_of(span: Span) -> int:
        key = norm_key(ctx.span_text(span))
        gid = key_to_group.get(key)
        if gid is None:
            gid = len(group_mentions)
            key_to_group[key] = gid
            group_mentions.append([])
        if span not in group_mentions[gid]:
            group_mentions[gid].append(span)
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
        mentions: list[Span] = []
        for gid in members[root]:
            for m in group_mentions[gid]:
                if m not in mentions:
                    mentions.append(m)
        mentions.sort()
        texts = [collapse(ctx.span_text(m)) for m in mentions]
        non_pronoun = [(t, m) for t, m in zip(texts, mentions) if not is_pronoun(t)]
        pool = non_pronoun or list(zip(texts, mentions))
        surface = max(pool, key=lambda tm: (len(tm[0]), (-tm[1].sent, -tm[1].start)))[0]
        nodes.append(Node(node_id, surface, mentions, texts))

    edges: list[Edge] = []
    seen = set()
    for src, dst, rel, sent in raw_edges:
        s = root_to_id[uf.find(src)]
        d = root_to_id[uf.find(dst)]
        if s == d:
            continue  # self-loop created by a merge
        sig = (s, d, rel, sent)
        if sig in seen:
            continue
        seen.add(sig)
        edges.append(Edge(s, d, rel, sent))

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

    graph = ContextGraph(ctx, nodes, edges)
    for node in nodes:
        if not node.is_named_entity:
            linked = sorted(o for _, o in graph.incident(node.id) if nodes[o].is_named_entity)
            node.entity_link = linked[0] if linked else None
    return graph
