"""Turn two-hop QA records into initial-question training tuples.

The pipeline per record: classify the reasoning type, keep Bridge and
Intersection, decompose into two sub-questions, answer both with a
single-hop QA backend, pick the sub-question sharing the record's answer,
split supporting facts by paragraph, and locate the 3-node chain in the
record's context graph. Every stage can skip the record with a fixed,
machine-readable reason.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import AnnotationError, BackendError, ConfigError, Failure, NodeNotFoundError, map_jobs, warn
from .graph import ContextGraph, Edge, build_context_graph
from .hotpot import HotpotRecord, record_context
from .planner import ChainNode, ReasoningChain, RewriteType
from .textutil import clean_tokens, content_set, content_tokens, normalize_answer, strip_punct

PLACEHOLDER = "[ANSWER]"


class ReasoningTypeTag(str, Enum):
    BRIDGE = "Bridge"
    INTERSECTION = "Intersection"
    COMPARISON = "Comparison"
    ONEHOP = "OneHop"


SKIP_TYPE_FILTERED = "type-filtered"
SKIP_DECOMPOSE = "decompose-failed"
SKIP_QA = "qa-failed"
SKIP_ANSWER = "answer-mismatch"
SKIP_NODE = "node-unfound"
SKIP_OVERLAP = "no-overlap"
SKIP_REASONS = (
    SKIP_TYPE_FILTERED,
    SKIP_DECOMPOSE,
    SKIP_QA,
    SKIP_ANSWER,
    SKIP_NODE,
    SKIP_OVERLAP,
)


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_COMPARE_RE = re.compile(
    r"\b(more|most|less|least|longer|longest|shorter|shortest|older|oldest"
    r"|younger|youngest|earlier|earliest|later|latest|larger|largest"
    r"|smaller|smallest|higher|highest|taller|tallest|bigger|biggest|first)\b",
    re.IGNORECASE,
)
_OR_RE = re.compile(r"\bor\b", re.IGNORECASE)
_BOTH_RE = re.compile(r"\bboth\b", re.IGNORECASE)
_AND_VERB_RE = re.compile(
    r"\band\s+(?:also\s+)?(?P<verb>(?:is|was|are|were|has|have|had|won|wrote"
    r"|became|directs|stars|plays|borders|\w+ed)\b)",
    re.IGNORECASE,
)
_CLAUSE_RE = re.compile(r"\b(that|which|whose|whom|where|who)\b", re.IGNORECASE)
_EMBED_RE = re.compile(
    r"(?:\b(?P<prep>to|in|of|for|at|on|by|with|from)\s+)?"
    r"\b(?P<marker>which|that|whose|whom)\b",
    re.IGNORECASE,
)
_ARTICLES = {"a", "an", "the"}


class RuleTypeClassifier:
    """Cue-based stand-in for a trained reasoning-type classifier."""

    kind = "rule"

    def classify(self, question: str) -> str:
        q = question.strip()
        if not q:
            raise AnnotationError("cannot classify an empty question")
        if (_COMPARE_RE.search(q) and _OR_RE.search(q)) or _BOTH_RE.search(q):
            return ReasoningTypeTag.COMPARISON.value
        if _AND_VERB_RE.search(q):
            return ReasoningTypeTag.INTERSECTION.value
        parts = q.split(None, 1)
        body = parts[1] if len(parts) > 1 else ""
        if not _CLAUSE_RE.search(body):
            return ReasoningTypeTag.ONEHOP.value
        return ReasoningTypeTag.BRIDGE.value


class RuleDecomposer:
    """Boundary-splitting stand-in for a trained question decomposer.

    Bridge questions are split at their first embedded-clause marker: the
    clause becomes the first sub-question and the outer question keeps a
    placeholder where the clause's answer will be substituted. Intersection
    questions split at the conjunction, reusing the wh-word for both parts.
    """

    kind = "rule"

    def decompose(self, question: str, qtype: str | None = None) -> tuple[str, str] | None:
        q = question.strip()
        if qtype == ReasoningTypeTag.INTERSECTION.value:
            return self._split_intersection(q)
        return self._split_bridge(q)

    def _split_intersection(self, q: str) -> tuple[str, str] | None:
        m = _AND_VERB_RE.search(q)
        if m is None:
            return None
        left = q[: m.start()].strip().rstrip(",").rstrip("?").strip()
        right = q[m.start("verb") :].strip()  # never empty: it starts with the verb, a word
        wh = q.split(None, 1)[0]
        if not left or left.lower() == wh.lower():
            return None
        if not right.endswith("?"):
            right += "?"
        return f"{left}?", f"{wh} {right}"

    def _split_bridge(self, q: str) -> tuple[str, str] | None:
        first = q.split(None, 1)
        if len(first) < 2:
            return None
        search_from = len(q) - len(first[1])
        for m in _EMBED_RE.finditer(q, search_from):
            split = self._split_at_marker(q, m)
            if split is not None:
                return split
        return None

    @staticmethod
    def _split_at_marker(q: str, m: re.Match) -> tuple[str, str] | None:
        pre = q[: m.start()].rstrip()
        pre_tokens = pre.split()  # the search starts after the first word
        head = pre_tokens[-1]
        region_tok = len(pre_tokens) - 1
        if region_tok >= 1 and pre_tokens[-2].lower() in _ARTICLES:
            region_tok -= 1
        if region_tok == 0:
            return None
        tail = q[m.end() :].strip().rstrip("?").strip()
        if len(tail.split()) < 2 or not strip_punct(head):
            return None
        marker = m.group("marker").lower()
        if marker == "that":
            marker = "which"
        prep = m.group("prep")
        if prep:
            sub1 = f"{prep.capitalize()} {marker} {strip_punct(head)} {tail}?"
        else:
            sub1 = f"{marker.capitalize()} {strip_punct(head)} {tail}?"
        # region_tok is at least 1, so the outer question keeps the first word.
        region_start = list(_TOKEN_RE.finditer(pre))[region_tok].start()
        return sub1, f"{q[:region_start].rstrip()} {PLACEHOLDER}?"


_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_TOKEN_RE = re.compile(r"\S+")
# Tokens never allowed to start or end an extracted answer span.
_GLUE = {
    "a", "an", "the", "is", "was", "are", "were", "be", "been", "being",
    "by", "in", "of", "to", "as", "for", "on", "at", "with", "from",
    "and", "or", "it", "its", "this", "that", "which", "who", "whom",
    "whose", "did", "does", "do", "has", "have", "had",
}


def _longest_common_run(a: list[str], b: list[str]) -> tuple[int, int, int]:
    """(length, end_in_a, end_in_b) of the longest common contiguous run; of
    equal runs, the one ending first in a, then in b.

    The run-length table, kept only where the tokens match: each a token
    extends the runs ending just before its matches in b.
    """
    where: dict[str, list[int]] = {}
    for j, tok in enumerate(b, 1):
        where.setdefault(tok, []).append(j)
    best = (0, 0, 0)
    prev: dict[int, int] = {}
    for i, tok in enumerate(a, 1):
        row = {}
        for j in where.get(tok, ()):
            run = row[j] = prev.get(j - 1, 0) + 1
            if run > best[0]:
                best = (run, i, j)
        prev = row
    return best


class RuleQa:
    """Overlap-anchored span heuristic standing in for a single-hop QA model.

    Picks the sentence with the highest content-token overlap, anchors on
    the longest token run shared with the question, and takes the span on
    one side of the anchor. Both ends shed glue words; the anchor-adjacent
    end also sheds tokens the question already uses, since those continue
    the question's phrasing rather than the answer (the far end keeps
    them: names legitimately reuse question words). Of the two sides, the
    one keeping more tokens wins (the short side is usually a dangling
    adjunct); ties go to the right-hand span, matching subject-verb-object
    reading order.

    It keeps the sentence table of the last context it answered on (each
    sentence with its cleaned tokens and content-token set), so a record's
    second sub-question splits and tokenizes no sentence. A CLI run calls it
    on one thread, as threads only bound parallel remote calls; a library
    caller's threads read the pair once and replace it whole.
    """

    kind = "rule"
    name = "rule-qa"
    _last: tuple[str | None, list[tuple[str, list[str], set[str]]]] = (None, [])  # (context, table)

    def _sentences(self, context: str) -> list[tuple[str, list[str], set[str]]]:
        last_context, table = self._last
        if last_context != context:
            table = []
            for sentence in _SENT_SPLIT_RE.split(context):
                tokens = clean_tokens(sentence)
                table.append((sentence, tokens, content_set(tokens)))
            self._last = (context, table)
        return table

    def answer(self, question: str, context: str) -> str:
        q_tokens = clean_tokens(question)
        q_set = set(q_tokens)
        q_content = content_set(q_tokens)
        best = None
        best_overlap = 0
        for entry in self._sentences(context):
            overlap = len(q_content & entry[2])
            if overlap > best_overlap:
                best_overlap, best = overlap, entry
        if best is None:
            return ""
        best_sentence, s_tokens, _ = best
        # _TOKEN_RE and str.split agree on whitespace, so the matches line
        # up with the cleaned tokens.
        matches = list(_TOKEN_RE.finditer(best_sentence))
        # best shares a content token with the question: the run is at least 1.
        run_len, _, run_end_b = _longest_common_run(q_tokens, s_tokens)

        def cut(lo: int, hi: int, anchor_left: bool) -> tuple[str, int]:
            while lo < hi and (
                s_tokens[lo] in _GLUE or (anchor_left and s_tokens[lo] in q_set)
            ):
                lo += 1
            while hi > lo and (
                s_tokens[hi - 1] in _GLUE
                or (not anchor_left and s_tokens[hi - 1] in q_set)
            ):
                hi -= 1
            if lo >= hi:
                return "", 0
            text = best_sentence[matches[lo].start() : matches[hi - 1].end()]
            return text.strip(".,!?;:\"' "), hi - lo

        after, after_len = cut(run_end_b, len(s_tokens), anchor_left=True)
        before, before_len = cut(0, run_end_b - run_len, anchor_left=False)
        if after_len >= before_len:
            return after or before
        return before


class BackendSuite(NamedTuple):
    """The three pluggable services Algorithm-style construction relies on."""

    classifier: object
    decomposer: object
    qa: object

    def validate(self) -> None:
        for role in ("classifier", "decomposer", "qa"):
            if getattr(self, role) is None:
                raise ConfigError(f"dataset builder needs a {role} backend")

    def provenance(self) -> dict[str, str]:
        return {
            "classify": getattr(self.classifier, "kind", "unknown"),
            "decompose": getattr(self.decomposer, "kind", "unknown"),
            "qa": getattr(self.qa, "kind", "unknown"),
        }


class TrainingExample(NamedTuple):
    record_id: str
    rewrite_type: ReasoningTypeTag
    q1: str
    a1: str
    s1: list[tuple[str, int]]
    s2: list[tuple[str, int]]
    chain: ReasoningChain
    q2: str
    a2: str
    backends: dict[str, str]

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "type": self.rewrite_type.value,
            "q1": self.q1,
            "a1": self.a1,
            "s1": [[t, i] for t, i in self.s1],
            "s2": [[t, i] for t, i in self.s2],
            "chain": self.chain.to_json(),
            "q2": self.q2,
            "a2": self.a2,
            "backends": dict(self.backends),
        }


def select_initial_pair(
    tag: ReasoningTypeTag,
    subq1: str,
    suba1: str,
    subq2: str,
    suba2: str,
    a2: str,
) -> tuple[str, str, int]:
    """(Q_1, A_1, chosen sub-question index 1 or 2).

    Bridge keeps the sub-question whose answer equals the final answer;
    exactly one must. Intersection always keeps the first sub-question.
    """
    if tag is ReasoningTypeTag.INTERSECTION:
        return subq1, suba1, 1
    target = normalize_answer(a2)
    first = normalize_answer(suba1) == target
    second = normalize_answer(suba2) == target
    if first == second:
        raise _Skip(SKIP_ANSWER)
    if first:
        return subq1, suba1, 1
    return subq2, suba2, 2


def assign_context_sentences(
    record: HotpotRecord, q1: str
) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Split supporting facts into (facts of the paragraph Q_1 concerns, rest)."""
    q_content = set(content_tokens(q1))
    # Tokens ignore the whitespace between them: the sentences need no
    # collapsing.
    overlaps = [
        len(q_content & set(content_tokens(" ".join(p.sentences))))
        for p in record.paragraphs
    ]
    if all(o == 0 for o in overlaps):
        raise _Skip(SKIP_OVERLAP)
    chosen = max(range(len(overlaps)), key=lambda i: (overlaps[i], -i))
    chosen_title = record.paragraphs[chosen].title
    s1 = [(t, i) for t, i in record.supporting_facts if t == chosen_title]
    s2 = [(t, i) for t, i in record.supporting_facts if t != chosen_title]
    return s1, s2


def _pick_edge(graph: ContextGraph, child: int, parent: int) -> Edge:
    edges = graph.edges_between(child, parent)
    if not edges:
        raise _Skip(SKIP_NODE)
    return min(edges, key=lambda e: (e.sentence_index, e.relation, e.source != child))


def locate_chain(
    graph: ContextGraph,
    a2: str,
    q1_subq: str,
    other_subq: str,
    tag: ReasoningTypeTag,
) -> ReasoningChain:
    """Find the 3-node chain rooted at the answer by text matching.

    The middle node is matched against Q_1's text (after substitution Q_1
    names the bridge entity) and the leaf against the other sub-question's
    text. Bridge chains hang the leaf off the middle node; Intersection
    chains attach both nodes directly to the answer node (two restrictions
    on one entity).
    """
    try:
        root = graph.find_node(a2)
    except NodeNotFoundError:
        raise _Skip(SKIP_NODE) from None
    # Content tokens hold no stopword, so their overlap with a node's match
    # tokens is their overlap with its content tokens.
    middle = graph.overlap_node(set(content_tokens(q1_subq)), exclude=(root.id,))
    if middle is None:
        raise _Skip(SKIP_NODE)
    leaf = graph.overlap_node(set(content_tokens(other_subq)), exclude=(root.id, middle.id))
    if leaf is None:
        raise _Skip(SKIP_NODE)
    bridge = tag is ReasoningTypeTag.BRIDGE
    leaf_parent = middle if bridge else root
    nodes = [
        ChainNode(index=0, node_id=root.id, surface=root.surface),
        ChainNode.hop(1, middle, 0, _pick_edge(graph, middle.id, root.id), RewriteType.BRIDGE),
        ChainNode.hop(
            2, leaf, 1 if bridge else 0, _pick_edge(graph, leaf.id, leaf_parent.id),
            RewriteType.BRIDGE if bridge else RewriteType.INTERSECTION,
        ),
    ]
    return ReasoningChain(nodes=nodes, d=2)


def process_record(
    record: HotpotRecord, backends: BackendSuite
) -> tuple[TrainingExample | Failure, str | None]:
    """One record through all stages: (its example or a Failure, the label).

    A skip is a Failure whose message and reason are the skip reason; an
    error is one with no reason, whose message names the record. The label
    is the classifier's output, None when classifying failed, kept so the
    caller can tally type counts without re-asking the backend.
    """
    label: str | None = None
    try:
        label = backends.classifier.classify(record.question)
        try:
            tag = ReasoningTypeTag(label)
        except ValueError:
            return Failure(f"{record.record_id}: unknown type label {label!r}"), label
        if tag not in (ReasoningTypeTag.BRIDGE, ReasoningTypeTag.INTERSECTION):
            raise _Skip(SKIP_TYPE_FILTERED)
        split = backends.decomposer.decompose(record.question, tag.value)
        if not split or not split[0].strip() or not split[1].strip():
            raise _Skip(SKIP_DECOMPOSE)
        subq1, subq2 = split
        ctx = record_context(record)
        suba1 = backends.qa.answer(subq1, ctx.context)
        if not suba1.strip():
            raise _Skip(SKIP_QA)
        if PLACEHOLDER in subq2:
            subq2 = subq2.replace(PLACEHOLDER, suba1)
        suba2 = backends.qa.answer(subq2, ctx.context)
        if not suba2.strip():
            raise _Skip(SKIP_QA)
        q1, a1, chosen = select_initial_pair(
            tag, subq1, suba1, subq2, suba2, record.answer
        )
        s1, s2 = assign_context_sentences(record, q1)
        graph = build_context_graph(ctx)
        other = subq2 if chosen == 1 else subq1
        chain = locate_chain(graph, record.answer, q1, other, tag)
        return TrainingExample(
            record_id=record.record_id,
            rewrite_type=tag,
            q1=q1,
            a1=a1,
            s1=s1,
            s2=s2,
            chain=chain,
            q2=record.question,
            a2=record.answer,
            backends=backends.provenance(),
        ), label
    except _Skip as skip:
        return Failure(skip.reason, skip.reason), label
    except (AnnotationError, BackendError) as exc:
        return Failure(f"{record.record_id}: {exc}"), label


def build_dataset(
    records: list[HotpotRecord],
    backends: BackendSuite,
    concurrency: int = 1,
) -> tuple[list[TrainingExample], dict]:
    """Run every record through the construction stages, in input order, on
    `concurrency` threads to bound parallel remote calls (at 1, the calling thread).

    Per-record failures are counted, never fatal; an error also warns on
    stderr. The stats report satisfies examples + skips + errors = records.
    """
    backends.validate()
    stats = {
        "records": len(records),
        "examples": 0,
        "skips": {reason: 0 for reason in SKIP_REASONS},
        "errors": 0,
        "types": {},
    }
    examples: list[TrainingExample] = []
    for outcome, label in map_jobs(lambda r: process_record(r, backends), records, concurrency):
        if label is not None:
            stats["types"][label] = stats["types"].get(label, 0) + 1
        if type(outcome) is not Failure:
            examples.append(outcome)
        elif outcome.reason is not None:
            stats["skips"][outcome.reason] += 1
        else:
            stats["errors"] += 1
            warn("hopqg.builder", f"record failed: {outcome.message}")
    stats["examples"] = len(examples)
    return examples, stats
