"""Context graph construction from annotated triples and coreference clusters.

Every triple contributes two nodes (subject and object) and one directed,
relation-labeled edge. Argument spans with the same normalized text share a
node, except pronouns, which start with a node per span; coreference
clusters then merge nodes across differing surfaces. The canonical node
surface is the longest non-pronominal mention.
"""

from __future__ import annotations

from typing import NamedTuple

from .context import AnnotatedContext, Span
from .errors import NodeNotFoundError
from .textutil import PRONOUNS, collapse, match_tokens, norm_key

# Lowercase tokens tolerated inside a capitalized run ("Dial M for Murder").
_NAME_CONNECTORS = {"of", "for", "the", "and", "de", "la", "von", "van", "da"}


class Node(NamedTuple):
    """A graph node, an immutable tuple: build_context_graph fixes its named-entity flag when it makes it."""

    id: int
    surface: str
    mentions: list[Span]
    mention_texts: list[str]
    is_named_entity: bool = False

    def all_texts(self) -> list[str]:
        return [self.surface] + self.mention_texts


class Edge(NamedTuple):
    source: int
    target: int
    relation: str
    sentence_index: int


class ContextGraph:
    """A context's nodes and edges, immutable tuples made once. Each node's
    incident edges, the entity facets (``entity_link``, ``answer_nodes``) and
    the node lookup (``find_node``, ``overlap_node``) are computed on first
    read, as not every command reads them, and kept in an attribute that is
    None until then. No lock is taken: a table is stored whole once computed,
    so threads that race on a first read at worst compute equal tables twice."""

    def __init__(self, context: AnnotatedContext, nodes: list[Node], edges: list[Edge]) -> None:
        self.context = context
        self.nodes = nodes
        self.edges = edges
        self._incident: dict[int, list[tuple[Edge, int]]] | None = None
        self._facets: tuple[tuple[int | None, ...], tuple[int, ...]] | None = None
        self._table: tuple[dict[str, Node], list[set[str]]] | None = None

    def _incident_edges(self) -> dict[int, list[tuple[Edge, int]]]:
        if self._incident is not None:
            return self._incident
        incident: dict[int, list[tuple[Edge, int]]] = {}
        for e in self.edges:
            source, target = e.source, e.target
            incident.setdefault(source, []).append((e, target))
            incident.setdefault(target, []).append((e, source))
        self._incident = incident
        return incident

    def _entity_facets(self) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
        """Each node's entity link, by node id, and the answer nodes."""
        if self._facets is not None:
            return self._facets
        nodes, incident = self.nodes, self._incident_edges()
        links: list[int | None] = []
        eligible = []
        for node in nodes:
            others = {other for _, other in incident.get(node.id, ())}
            # A non-entity node links to its lowest-id named-entity neighbour.
            link = None
            if not node.is_named_entity:
                linked = [o for o in others if nodes[o].is_named_entity]
                link = min(linked) if linked else None
            links.append(link)
            if len(others) > 1 and (node.is_named_entity or link is not None):
                eligible.append(node.id)
        self._facets = tuple(links), tuple(eligible)
        return self._facets

    def entity_link(self, node_id: int) -> int | None:
        """The lowest-id named-entity neighbour of a node that is not a named
        entity itself; None for a named entity or a node with no such neighbour."""
        return self._entity_facets()[0][node_id]

    @property
    def answer_nodes(self) -> tuple[int, ...]:
        """Ids of the nodes a chain may be planned around, ascending: those
        with more than one distinct neighbour that are named entities or
        have an entity link."""
        return self._entity_facets()[1]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def incident(self, node_id: int) -> list[tuple[Edge, int]]:
        """All edges touching node_id, paired with the opposite endpoint; do not mutate."""
        return self._incident_edges().get(node_id, [])

    def edges_between(self, a: int, b: int) -> list[Edge]:
        return [e for e, other in self.incident(a) if other == b]

    def _node_lookup(self) -> tuple[dict[str, Node], list[set[str]]]:
        """norm_key of every surface and mention -> its first node in id
        order, and each node's match tokens over its surface and mentions."""
        if self._table is not None:
            return self._table
        exact: dict[str, Node] = {}
        tokens = []
        for node in self.nodes:
            # The surface is also a mention: each distinct text is keyed once.
            texts = dict.fromkeys(node.all_texts())
            for t in texts:
                exact.setdefault(norm_key(t), node)
            # Tokens never span a space, so these are the union of the
            # tokens of each distinct text.
            tokens.append(set(match_tokens(" ".join(texts))))
        self._table = exact, tokens
        return self._table

    def find_node(self, text: str) -> Node:
        """Locate the node best matching text.

        Exact normalized match against any surface or mention wins; otherwise
        overlap_node on its match tokens. Zero overlap raises NodeNotFoundError.
        """
        hit = self._node_lookup()[0].get(norm_key(text))
        if hit is None:
            hit = self.overlap_node(set(match_tokens(text)))
            if hit is None:
                raise NodeNotFoundError(f"no node overlaps {text!r}")
        return hit

    def overlap_node(self, tokens: set[str], exclude: tuple[int, ...] = ()) -> Node | None:
        """The node, other than those of exclude, sharing the most of tokens
        with its surface and mentions' match tokens; ties go to the lowest
        node id, and None when no node shares one."""
        best, best_score = None, 0
        for node, node_tokens in zip(self.nodes, self._node_lookup()[1]):
            score = len(tokens & node_tokens)
            if score > best_score and node.id not in exclude:
                best, best_score = node, score
        return best

    def to_json(self) -> dict:
        links = self._entity_facets()[0]
        return {
            "nodes": [
                {
                    "id": n.id,
                    "surface": n.surface,
                    "is_named_entity": n.is_named_entity,
                    "entity_link": links[n.id],
                    "mentions": [dict(m.to_json(), text=t) for m, t in zip(n.mentions, n.mention_texts)],
                }
                for n in self.nodes
            ],
            "edges": [
                {"source": e.source, "target": e.target, "relation": e.relation, "sentence": e.sentence_index}
                for e in self.edges
            ],
        }


def _capitalized_run(text: str, span: Span, ctx: AnnotatedContext) -> bool:
    """Whether text is a run of capitalized tokens, with connectors allowed
    inside it. A connector is never the first token, so a run that passes
    the loop starts with a capitalized one."""
    tokens = text.split()
    if not tokens:
        return False
    for i, tok in enumerate(tokens):
        core = tok.strip(".,;:!?'\"()")
        if not core:
            return False
        if not core[0].isupper() and not (core.lower() in _NAME_CONNECTORS and 0 < i < len(tokens) - 1):
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


def _normalize(known: dict[str, tuple[str, str, bool]], raw: str) -> tuple[str, str, bool]:
    """raw's collapsed text, its key (norm_key) and whether it is a pronoun,
    stored in known under raw."""
    text = collapse(raw)
    key = text.casefold()  # norm_key(raw), as text is already collapsed
    known[raw] = entry = (text, key, key in PRONOUNS)
    return entry


def build_context_graph(ctx: AnnotatedContext) -> ContextGraph:
    """Build the merged, deduplicated context graph for an annotated context."""
    context = ctx.context
    # Each distinct raw span text, normalized once: arguments and relations repeat.
    known: dict[str, tuple[str, str, bool]] = {}
    key_to_group: dict[str | Span, int] = {}
    # Per group: each argument span, in first-seen order, with its collapsed
    # text; and whether the group is a pronoun's.
    group_mentions: list[dict[Span, str]] = []
    group_pronoun: list[bool] = []
    raw_edges: list[tuple[int, int, str, int]] = []
    # Each argument span with its group, by sentence: a cluster mention or a
    # named entity matches an argument of its own sentence that contains it
    # or that it contains, which tolerates small boundary disagreements
    # between annotation layers. Spans are looked up by sentence, so the
    # match compares offsets only.
    args_by_sent: dict[int, list[tuple[Span, int]]] = {}

    # Each argument's group, found inline for the subject and then the object:
    # a function call per span would cost more than the lookups themselves.
    for subject, relation, obj in ctx.triples:
        raw = context[subject.start : subject.end]
        text, key, pronoun = known.get(raw) or _normalize(known, raw)
        if pronoun:
            # A pronoun names nothing by itself; only a coreference cluster
            # may merge it, so each one keeps a group of its own.
            key = subject
        src = key_to_group.get(key)
        if src is None:
            src = key_to_group[key] = len(group_mentions)
            group_mentions.append({})
            group_pronoun.append(pronoun)
        group_mentions[src][subject] = text
        raw = context[obj.start : obj.end]
        text, key, pronoun = known.get(raw) or _normalize(known, raw)
        if pronoun:
            key = obj
        dst = key_to_group.get(key)
        if dst is None:
            dst = key_to_group[key] = len(group_mentions)
            group_mentions.append({})
            group_pronoun.append(pronoun)
        group_mentions[dst][obj] = text
        raw = context[relation.start : relation.end]
        sent = subject.sent
        raw_edges.append((src, dst, (known.get(raw) or _normalize(known, raw))[0], sent))
        args_by_sent.setdefault(sent, []).extend(((subject, src), (obj, dst)))

    uf = _UnionFind(len(group_mentions))
    for cluster in ctx.coref_clusters:
        # The matching groups in ascending order, as an all-pairs scan lists them.
        matched = sorted({
            gid
            for sent, start, end in cluster
            for (_, m_start, m_end), gid in args_by_sent.get(sent, ())
            if (start <= m_start and m_end <= end) or (m_start <= start and end <= m_end)
        })
        for gid in matched[1:]:
            uf.union(matched[0], gid)

    # Merged groups keyed by root. A root is the lowest group of its set, so
    # the roots come in order of earliest creation index.
    members: dict[int, list[int]] = {}
    for gid in range(len(group_mentions)):
        members.setdefault(uf.find(gid), []).append(gid)
    node_of = [0] * len(group_mentions)
    for node_id, gids in enumerate(members.values()):
        for gid in gids:
            node_of[gid] = node_id

    # A node is a named entity if a mention of it matches an entity span or,
    # in a context with no entity spans, if a mention is a capitalized run.
    named_ids = None if ctx.named_entities is None else {
        node_of[gid]
        for sent, start, end in ctx.named_entities
        for (_, m_start, m_end), gid in args_by_sent.get(sent, ())
        if (start <= m_start and m_end <= end) or (m_start <= start and end <= m_end)
    }

    new = tuple.__new__
    nodes: list[Node] = []
    for node_id, gids in enumerate(members.values()):
        if len(gids) == 1:
            text_of = group_mentions[gids[0]]
        else:
            text_of = {}
            for gid in gids:
                text_of.update(group_mentions[gid])
        mentions = sorted(text_of)
        texts = [text_of[m] for m in mentions]
        # The surface is the longest mention of a non-pronoun group, if the
        # node has one; among equals the first, as mentions are in text order.
        pool = texts
        if len(gids) > 1:
            named = [gid for gid in gids if not group_pronoun[gid]]
            if 0 < len(named) < len(gids):
                keep = {m for gid in named for m in group_mentions[gid]}
                pool = [t for m, t in zip(mentions, texts) if m in keep]
        if named_ids is None:
            is_ne = any(_capitalized_run(t, m, ctx) for t, m in zip(texts, mentions))
        else:
            is_ne = node_id in named_ids
        nodes.append(new(Node, (node_id, max(pool, key=len), mentions, texts, is_ne)))

    # Distinct edges in first-seen order; a merge can make a self-loop, which is dropped.
    distinct = dict.fromkeys(
        (node_of[src], node_of[dst], rel, sent) for src, dst, rel, sent in raw_edges if node_of[src] != node_of[dst]
    )
    edges = [new(Edge, e) for e in distinct]

    return ContextGraph(ctx, nodes, edges)
