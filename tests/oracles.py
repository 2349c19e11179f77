"""Independent brute-force reference implementations for tests.

These deliberately share no code path with hopqg.metrics beyond the
tokenizer definition (which is part of the metric's published contract),
and none with hopqg.graph beyond the node-identity key. The planner
oracle reads a graph only through its nodes and edge list, and shares
with hopqg.planner only the pruning and indexing of a finished tree.
The input parser inverts hopqg.geninput's serialization and shares with it
only the marker tokens and the GeneratorInput it rebuilds; the segment
oracle labels an input's fields token by token. The match-token
and common-run oracles are the per-token and full-table forms of
hopqg.textutil.match_tokens and the rule QA's run search. The node lookup
oracles rescan every node's texts on each call. oracle_align is the METEOR-s
alignment search as it stood before forced positions were placed without
search, kept verbatim as the reference for the search that replaced it, and
oracle_ngram_pass is the n-gram pass as it stood when it counted in Counters.
"""

from __future__ import annotations

import math
import random
import re
import string
import threading
from collections import Counter, deque
from functools import reduce
from operator import add, mul

from hopqg.errors import AssemblyError, NodeNotFoundError, PlanningError
from hopqg.geninput import BOS, EDGE, EOS, MARKERS, NODE_C, NODE_P, SUBQ, TYPE, GeneratorInput, SegmentLabel
from hopqg.metrics import light_stem, tokenize
from hopqg.planner import EdgeDirection, RewriteType, SpanningTree, index_chain, prune_tree
from hopqg.textutil import PRONOUNS, STOPWORDS, norm_key


def oracle_lcs(a: list, b: list) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(hyp: str, ref: str, beta: float = 1.2) -> float:
    h, r = tokenize(hyp), tokenize(ref)
    if not h or not r:
        return 0.0
    lcs = oracle_lcs(h, r)
    if lcs == 0:
        return 0.0
    prec = lcs / len(h)
    rec = lcs / len(r)
    return (1 + beta**2) * prec * rec / (rec + beta**2 * prec)


def _gram_list(tokens, k):
    return [tuple(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def oracle_bleu(corpus, n: int) -> float:
    precisions = []
    for k in range(1, n + 1):
        num, den = 0, 0
        for hyp, refs in corpus:
            h = tokenize(hyp)
            grams = _gram_list(h, k)
            den += len(grams)
            for gram in set(grams):
                cap = 0
                for ref in refs:
                    c = _gram_list(tokenize(ref), k).count(gram)
                    cap = max(cap, c)
                num += min(grams.count(gram), cap)
        if den == 0 or num == 0:
            return 0.0
        precisions.append(num / den)
    c = sum(len(tokenize(h)) for h, _ in corpus)
    r = 0
    for hyp, refs in corpus:
        hl = len(tokenize(hyp))
        lengths = sorted(len(tokenize(ref)) for ref in refs)
        r += min(lengths, key=lambda L: (abs(L - hl), L))
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1 - r / c)
    geo = 1.0
    for p in precisions:
        geo *= p ** (1.0 / n)
    return bp * geo


def oracle_cider(corpus, n_max: int = 4) -> float:
    toks = [(tokenize(h), [tokenize(r) for r in refs]) for h, refs in corpus]
    big_n = len(toks)
    scores = []
    for h, refs in toks:
        per_order = []
        for k in range(1, n_max + 1):
            def idf(gram):
                df = 0
                for _, other_refs in toks:
                    if any(gram in _gram_list(orf, k) for orf in other_refs):
                        df += 1
                return math.log(big_n / max(df, 1))

            def weight_vec(tokens):
                grams = _gram_list(tokens, k)
                return {g: grams.count(g) * idf(g) for g in set(grams)}

            hv = weight_vec(h)
            sims = []
            for ref in refs:
                rv = weight_vec(ref)
                dot = sum(hv[g] * rv[g] for g in hv if g in rv)
                hn = math.sqrt(sum(v * v for v in hv.values()))
                rn = math.sqrt(sum(v * v for v in rv.values()))
                sims.append(dot / (hn * rn) if hn > 0 and rn > 0 else 0.0)
            per_order.append(sum(sims) / len(sims))
        scores.append(sum(per_order) / n_max)
    return 10.0 * sum(scores) / big_n


def _left_sum(values) -> float:
    return reduce(add, values, 0)


def oracle_ngram_pass(items, order: int, cider: bool):
    """hopqg.metrics._NgramPass's counts as they stood when each n-gram
    count was a Counter: (clipped, total, CIDEr terms) over items of (hyp
    tokens, [ref tokens]), with clipped and total indexed by order. Its
    float expressions and their order are the pass's, so each CIDEr term
    must equal the pass's to the bit.
    """
    clipped, total = [0] * (order + 1), [0] * (order + 1)
    cider_items = [0.0] * len(items) if cider else None
    for k in range(1, order + 1):
        counted = []
        df: Counter = Counter()
        for hyp, refs in items:
            hyp_counts = Counter(zip(*[hyp[i:] for i in range(k)]))
            ref_counts = [Counter(zip(*[r[i:] for i in range(k)])) for r in refs]
            max_ref = ref_counts[0]
            if len(ref_counts) > 1:
                max_ref = dict(max_ref)
                for other in ref_counts[1:]:
                    for g, c in other.items():
                        if c > max_ref.get(g, 0):
                            max_ref[g] = c
            if hyp_counts:
                total[k] += len(hyp) - k + 1
                clipped[k] += sum(min(c, max_ref.get(g, 0)) for g, c in hyp_counts.items())
            if cider:
                df.update(max_ref.keys())
                counted.append((hyp_counts, ref_counts))
        if not cider:
            continue
        n_items = len(items)
        log_of = {d: math.log(n_items / d) for d in set(df.values())}
        idf = {g: log_of[d] for g, d in df.items()}
        unseen = math.log(n_items)
        for i, (hyp_counts, ref_counts) in enumerate(counted):
            hyp_idf = [idf.get(g, unseen) for g in hyp_counts]
            hyp_w = list(map(mul, hyp_counts.values(), hyp_idf))
            hn = math.sqrt(_left_sum(map(mul, hyp_w, hyp_w)))
            if hn == 0:
                continue
            cosines = []
            for counts in ref_counts:
                ref_w = list(map(mul, counts.values(), map(idf.__getitem__, counts)))
                rn = math.sqrt(_left_sum(map(mul, ref_w, ref_w)))
                ref_count = counts.get
                dot = _left_sum(w * (c * f) for g, w, f in zip(hyp_counts, hyp_w, hyp_idf) if (c := ref_count(g)))
                cosines.append(dot / (hn * rn) if rn else 0.0)
            cider_items[i] += _left_sum(cosines) / len(cosines)
    return clipped, total, cider_items


def oracle_meteor(hyp: str, ref: str, alpha=0.9, beta=3.0, gamma=0.5) -> float:
    """Full enumeration of injective alignments; intended for short strings."""
    h, r = tokenize(hyp), tokenize(ref)
    if not h or not r:
        return 0.0
    hs, rs = [light_stem(t) for t in h], [light_stem(t) for t in r]
    best = None

    def chunks(ms):
        ms = sorted(ms)
        if not ms:
            return 0
        c = 1
        for (a1, b1), (a2, b2) in zip(ms, ms[1:]):
            if a2 != a1 + 1 or b2 != b1 + 1:
                c += 1
        return c

    def rec(i, used, matches, exact):
        nonlocal best
        if i == len(h):
            key = (exact, len(matches), -chunks(matches))
            if best is None or key > best[0]:
                best = (key, list(matches))
            return
        for j in range(len(r)):
            if j in used:
                continue
            if h[i] == r[j] or hs[i] == rs[j]:
                used.add(j)
                matches.append((i, j))
                rec(i + 1, used, matches, exact + (1 if h[i] == r[j] else 0))
                matches.pop()
                used.remove(j)
        rec(i + 1, used, matches, exact)

    rec(0, set(), [], 0)
    m = len(best[1])
    if m == 0:
        return 0.0
    p, rr = m / len(h), m / len(r)
    f_mean = p * rr / (alpha * p + (1 - alpha) * rr)
    ch = chunks(best[1])
    penalty = 0.0 if ch <= 1 else gamma * (ch / m) ** beta
    return f_mean * (1 - penalty)


def oracle_match_counts(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """(exact, exact + stem) maxima of a unigram alignment, in closed form.

    Exact matches pair equal tokens, min(hyp count, ref count) of each.
    The tokens they leave over then pair up within each stem.
    """
    exact = sum(min(hyp.count(t), ref.count(t)) for t in set(hyp))
    left_h, left_r = list(hyp), list(ref)
    for t in set(hyp):
        for _ in range(min(hyp.count(t), ref.count(t))):
            left_h.remove(t)
            left_r.remove(t)
    stems_h = [light_stem(t) for t in left_h]
    stems_r = [light_stem(t) for t in left_r]
    stem = sum(min(stems_h.count(s), stems_r.count(s)) for s in set(stems_h))
    return exact, exact + stem


# oracle_align is hopqg.metrics._align as it was before forced stem classes
# were placed without search: every hyp position is a search node. It is
# copied verbatim, so it keeps its own node budget and trip count under the
# names it reads.
NODE_BUDGET = 100_000

_fallbacks = threading.local()


def meteor_fallbacks() -> int:
    """oracle_align calls on the calling thread that used up their budget."""
    return getattr(_fallbacks, "count", 0)


def oracle_align(
    hyp: list[str],
    ref: list[str],
    hyp_stems: list[str],
    ref_stems: list[str],
    node_budget: int = NODE_BUDGET,
):
    """Unigram alignment with the most exact matches, then the most matches,
    then the fewest chunks, as (hyp, ref) index pairs in hyp order. The
    stems are those of the tokens of hyp and ref.

    Equal tokens have equal stems, so both match maxima have a closed form
    and hold together: exact = sum over tokens of min(hyp count, ref count),
    total = the same sum over stem classes. Three slack counters hold every
    branch to both maxima: per token, the hyp positions that may miss an
    exact match (miss) and the ref positions stem matches may take (lend);
    per stem class, the hyp positions that may stay unmatched (idle). A
    branch stops before a counter would go below zero, so the depth-first
    search over hyp positions looks only for the fewest chunks. It tries the
    diagonal continuation first and cuts a branch once its chunks reach the
    best found; chunks never decrease along a path.

    Fewest chunks is a minimum common string partition, which is NP-hard,
    so past node_budget nodes the search stops and the trip is counted
    (meteor_fallbacks). It then returns the best complete alignment found,
    or else a greedy exact-then-stem pass, which reaches both maxima.
    """
    m, n = len(hyp), len(ref)
    hyp_count, ref_count = Counter(hyp), Counter(ref)
    miss = {t: c - min(c, ref_count[t]) for t, c in hyp_count.items()}
    lend = {t: c - min(c, hyp_count[t]) for t, c in ref_count.items()}
    ref_class = Counter(ref_stems)
    idle = {s: c - min(c, ref_class[s]) for s, c in Counter(hyp_stems).items()}
    positions: dict[str, list[int]] = {}
    for j, s in enumerate(ref_stems):
        positions.setdefault(s, []).append(j)
    compat = [positions.get(s, []) for s in hyp_stems]

    used = [False] * n
    path = [-1] * m
    best: list[int] | None = None
    best_chunks = m + 1

    def children(i: int, prev: int, chunks: int):
        """The children of a search node. The counters, used and path hold
        each child's choice until the next child is asked for."""
        t = hyp[i]
        diag = prev + 1
        opts = compat[i]
        if 0 <= diag < n and ref_stems[diag] == hyp_stems[i]:
            opts = [diag] + [j for j in opts if j != diag]
        for j in opts:
            c = chunks + (j != diag)
            if used[j] or c >= best_chunks:
                continue
            u = ref[j]
            stem_match = u != t
            if stem_match:
                if not (miss[t] and lend[u]):
                    continue
                miss[t] -= 1
                lend[u] -= 1
            used[j] = True
            path[i] = j
            yield i + 1, j, c
            used[j] = False
            if stem_match:
                miss[t] += 1
                lend[u] += 1
        s = hyp_stems[i]
        if miss[t] and idle[s] and chunks < best_chunks:
            miss[t] -= 1
            idle[s] -= 1
            path[i] = -1
            yield i + 1, -2, chunks
            miss[t] += 1
            idle[s] += 1

    # Depth-first on an explicit stack of child generators, so a long
    # hypothesis does not run into the recursion limit.
    stack = [iter([(0, -2, 0)])]
    nodes = 0
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > node_budget:
            _fallbacks.count = meteor_fallbacks() + 1
            break
        i, prev, chunks = node
        if i == m:
            best, best_chunks = list(path), chunks
            continue
        stack.append(children(i, prev, chunks))
    if best is None:
        taken = [False] * n
        best = [-1] * m
        for exact_pass in (True, False):
            for i in range(m):
                if best[i] >= 0:
                    continue
                for j in compat[i]:
                    if not taken[j] and (ref[j] == hyp[i] or not exact_pass):
                        taken[j] = True
                        best[i] = j
                        break
    return [(i, j) for i, j in enumerate(best) if j >= 0]


def oracle_normalize_answer(text: str) -> str:
    """SQuAD answer normalization, deleting punctuation one character at a time."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in string.punctuation)
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return " ".join(text.split())


def oracle_token_f1(pred: str, gold: str) -> float:
    """SQuAD token F1 over oracle-normalized answers, overlap by Counter."""
    p, g = oracle_normalize_answer(pred).split(), oracle_normalize_answer(gold).split()
    if not p or not g:
        return float(p == g)
    overlap = sum((Counter(p) & Counter(g)).values())
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(p), overlap / len(g)
    return 2 * precision * recall / (precision + recall)


def oracle_match_tokens(text: str) -> list[str]:
    """Each whitespace token stripped of ASCII punctuation, then casefolded;
    empty ones dropped."""
    out = []
    for tok in text.split():
        tok = tok.strip(string.punctuation).casefold()
        if tok:
            out.append(tok)
    return out


def oracle_find_node(graph, text: str):
    """ContextGraph.find_node as a rescan: the first node in id order with a
    surface or mention of text's norm_key, else the first with the most
    match tokens in common, each node's texts tokenized one by one."""
    key = norm_key(text)
    for node in graph.nodes:
        if any(norm_key(t) == key for t in node.all_texts()):
            return node
    query = set(oracle_match_tokens(text))
    best, best_score = None, 0
    for node in graph.nodes:
        tokens: set[str] = set()
        for t in node.all_texts():
            tokens.update(oracle_match_tokens(t))
        if len(query & tokens) > best_score:
            best, best_score = node, len(query & tokens)
    if best is None:
        raise NodeNotFoundError(f"no node overlaps {text!r}")
    return best


def oracle_best_node(graph, tokens: set[str], exclude: tuple[int, ...] = ()):
    """The chain locator's node lookup as a candidate list: each node not in
    exclude with the content tokens of its joined texts; the highest
    non-zero overlap with tokens, ties to the lowest id, or None."""
    candidates = [
        (node, {t for t in oracle_match_tokens(" ".join(node.all_texts())) if t not in STOPWORDS})
        for node in graph.nodes
        if node.id not in exclude
    ]
    best, best_node = None, None
    for node, node_tokens in candidates:
        overlap = len(node_tokens & tokens)
        if overlap and (best is None or (overlap, -node.id) > best):
            best, best_node = (overlap, -node.id), node
    return best_node


def oracle_longest_common_run(a: list, b: list) -> tuple[int, int, int]:
    """(length, end in a, end in b) of the first longest common contiguous
    run, over the full run-length table in row order."""
    best = (0, 0, 0)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
                if table[i][j] > best[0]:
                    best = (table[i][j], i, j)
    return best


def span_text(ctx, span) -> str:
    return ctx.context[span.start : span.end]


def _oracle_spans_match(a, b) -> bool:
    if a.sent != b.sent:
        return False
    return (b.start <= a.start and a.end <= b.end) or (a.start <= b.start and b.end <= a.end)


def oracle_graph_merges(ctx) -> list[tuple[list, bool]]:
    """(sorted mentions, named-entity flag) per node, in node-id order.

    Tests every group mention against every coreference mention and every
    mention against every named-entity span, the all-pairs rule the
    graph builder's per-sentence index must reproduce. Only meaningful for
    contexts that carry named-entity annotations.
    """
    key_to_group: dict = {}
    groups: list[list] = []
    for t in ctx.triples:
        for span in (t.subject, t.object):
            key = norm_key(span_text(ctx, span))
            if key in PRONOUNS:
                key = span  # a pronoun merges only through a cluster
            if key not in key_to_group:
                key_to_group[key] = len(groups)
                groups.append([])
            if span not in groups[key_to_group[key]]:
                groups[key_to_group[key]].append(span)

    parent = list(range(len(groups)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for cluster in ctx.coref_clusters:
        matched = []
        for gid, mentions in enumerate(groups):
            if any(_oracle_spans_match(m, cm) for m in mentions for cm in cluster):
                matched.append(gid)
        for gid in matched[1:]:
            a, b = find(matched[0]), find(gid)
            if a != b:
                parent[max(a, b)] = min(a, b)

    members: dict[int, list] = {}
    for gid, mentions in enumerate(groups):
        node = members.setdefault(find(gid), [])
        node.extend(m for m in mentions if m not in node)
    out = []
    for mentions in members.values():
        mentions = sorted(mentions)
        is_ne = any(
            _oracle_spans_match(m, ne) for m in mentions for ne in ctx.named_entities
        )
        out.append((mentions, is_ne))
    return out


def _oracle_adjacency(graph) -> dict[int, list]:
    """Per node id, (edge, other endpoint) for every edge touching it, in edge order."""
    adjacency: dict[int, list] = {node.id: [] for node in graph.nodes}
    for e in graph.edges:
        adjacency[e.source].append((e, e.target))
        adjacency[e.target].append((e, e.source))
    return adjacency


def oracle_entity_links(graph) -> list:
    """Per node: its lowest-id named-entity neighbour, or None; None for entities."""
    links = []
    for node_id, incident in _oracle_adjacency(graph).items():
        linked = sorted(o for _, o in incident if graph.nodes[o].is_named_entity)
        links.append(linked[0] if linked and not graph.nodes[node_id].is_named_entity else None)
    return links


def oracle_eligible_answer_nodes(graph) -> list[int]:
    """Rescan every node: more than one distinct neighbour, and a named
    entity itself or next to one."""
    out = []
    adjacency = _oracle_adjacency(graph)
    for node in graph.nodes:
        others = {o for _, o in adjacency[node.id]}
        if len(others) > 1 and (node.is_named_entity or any(graph.nodes[o].is_named_entity for o in others)):
            out.append(node.id)
    return out


def oracle_spanning_tree(graph, root: int) -> SpanningTree:
    """The BFS tree of root's whole component, each node's edges sorted by
    (sentence, neighbour surface, relation, direction)."""

    def key(incident):
        edge, other = incident
        return (edge.sentence_index, graph.nodes[other].surface, edge.relation, 0 if edge.source == other else 1)

    adjacency = _oracle_adjacency(graph)
    parent: dict = {}
    children: dict = {root: []}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for edge, other in sorted(adjacency[u], key=key):
            if other not in children:
                parent[other] = (u, edge)
                children[u].append(other)
                children[other] = []
                queue.append(other)
    return SpanningTree(root, parent, children)


def oracle_plan_chain(graph, d: int, seed: int = 0, answer_text: str | None = None):
    """Plan over the full component tree, the answer sampled from a rescan."""
    if answer_text is not None:
        root = oracle_find_node(graph, answer_text).id
    else:
        eligible = oracle_eligible_answer_nodes(graph)
        if not eligible:
            raise PlanningError("no eligible answer node: need a named-entity-linked node with degree > 1")
        root = random.Random(seed).choice(eligible)
    tree = oracle_spanning_tree(graph, root)
    return index_chain(graph, tree, prune_tree(graph, tree, d), d)


def parse_input(text: str, step: int = 0, parent_aliases: tuple[str, ...] = ()) -> GeneratorInput:
    """Invert GeneratorInput serialization; raises AssemblyError on malformed sequences."""
    tokens = text.split(" ")
    positions: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok in MARKERS:
            if tok in positions:
                raise AssemblyError(f"marker {tok} occurs more than once")
            positions[tok] = i
    for required in (BOS, NODE_C, EDGE, NODE_P, EOS):
        if required not in positions:
            raise AssemblyError(f"marker {required} missing")
    if positions[BOS] != 0 or positions[EOS] != len(tokens) - 1:
        raise AssemblyError("sequence must start with <bos> and end with <eos>")
    if (TYPE in positions) != (SUBQ in positions):
        raise AssemblyError("<type> and <subq> must appear together")

    direction = (
        EdgeDirection.CHILD_TO_PARENT if positions[NODE_C] < positions[NODE_P] else EdgeDirection.PARENT_TO_CHILD
    )
    first_node = min(positions[NODE_C], positions[NODE_P])
    second_node = max(positions[NODE_C], positions[NODE_P])
    if not (positions[BOS] < first_node < positions[EDGE] < second_node):
        raise AssemblyError("node and edge blocks out of order")
    if TYPE in positions and not (second_node < positions[TYPE] < positions[SUBQ] < positions[EOS]):
        raise AssemblyError("type and sub-question blocks out of order")

    bounds = sorted(positions.values())

    def between(marker: str) -> str:
        start = positions[marker] + 1
        end = min(b for b in bounds if b > positions[marker])
        piece = " ".join(tokens[start:end])
        if not piece:
            raise AssemblyError(f"empty block after {marker}")
        return piece

    rewrite_type = None
    sub_question = None
    if TYPE in positions:
        try:
            rewrite_type = RewriteType(between(TYPE))
        except ValueError as exc:
            raise AssemblyError(f"unknown rewrite type {between(TYPE)!r}") from exc
        sub_question = between(SUBQ)
    return GeneratorInput(
        step=step,
        sentence=between(BOS),
        node_child=between(NODE_C),
        edge=between(EDGE),
        node_parent=between(NODE_P),
        direction=direction,
        rewrite_type=rewrite_type,
        sub_question=sub_question,
        parent_aliases=parent_aliases,
    )


def oracle_segments(gi: GeneratorInput) -> list[SegmentLabel]:
    """GeneratorInput's per-token labels, from its fields: each token of the
    context and sub-question blocks is stripped of ASCII punctuation, then
    casefolded, and at each position the parent surface and its aliases are
    tried longest first; a match relabels its tokens NodeP."""

    def norm(text: str) -> list[str]:
        return [tok.strip(string.punctuation).casefold() for tok in text.split()]

    nodes = [(gi.node_child, SegmentLabel.NODE_C), (gi.node_parent, SegmentLabel.NODE_P)]
    if gi.direction is EdgeDirection.PARENT_TO_CHILD:
        nodes.reverse()
    blocks = [(gi.sentence, SegmentLabel.CONTEXT), nodes[0], (gi.edge, SegmentLabel.EDGE), nodes[1]]
    if gi.rewrite_type is not None:
        blocks += [(gi.rewrite_type.value, SegmentLabel.TYPE), (gi.sub_question, SegmentLabel.SUBQ)]
    aliases = [norm(alias) for alias in (gi.node_parent, *gi.parent_aliases)]
    aliases = sorted((seq for seq in aliases if seq and all(seq)), key=len, reverse=True)
    labels = []
    for text, label in blocks:
        labels.append(SegmentLabel.MARKER)
        tokens = norm(text)
        block = [label] * len(tokens)
        if label in (SegmentLabel.CONTEXT, SegmentLabel.SUBQ):
            i = 0
            while i < len(tokens):
                for seq in aliases:
                    if tokens[i : i + len(seq)] == seq:
                        block[i : i + len(seq)] = [SegmentLabel.NODE_P] * len(seq)
                        i += len(seq)
                        break
                else:
                    i += 1
        labels += block
    labels.append(SegmentLabel.MARKER)
    return labels
