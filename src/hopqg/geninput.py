"""Serialized generator inputs with per-token segment labels.

Rewrite-step layout:
    <bos> S_i <nodeC> N_i <edge> E_i <nodeP> N_P(i) <type> R_i <subq> Q_{i-1} <eos>
The child and parent blocks exchange positions when the parent points to the
child; the initial step omits the <type> and <subq> blocks. Tokens are joined
by single spaces, so text.split(" ") aligns with the segment label list.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from operator import attrgetter

from .errors import AssemblyError
from .planner import EdgeDirection, RewriteType
from .textutil import collapse, strip_punct

BOS = "<bos>"
NODE_C = "<nodeC>"
EDGE = "<edge>"
NODE_P = "<nodeP>"
TYPE = "<type>"
SUBQ = "<subq>"
EOS = "<eos>"

MARKERS = (BOS, NODE_C, EDGE, NODE_P, TYPE, SUBQ, EOS)


class SegmentLabel(str, Enum):
    CONTEXT = "context_sentence"
    NODE_C = "node_c"
    EDGE = "edge_text"
    NODE_P = "node_p"
    TYPE = "type_tag"
    SUBQ = "sub_question"
    MARKER = "marker"


class GeneratorInput:
    """One step's generator input. Its fields are checked and collapsed when
    it is made, so a bad field raises AssemblyError there. ``text`` and
    ``segments``, the serialized sequence and its per-token labels, are
    computed together on first read (a ``functools.cached_property``, locked
    on Python 3.11 and earlier): the template backend reads neither. Two
    inputs are equal when their fields are."""

    def __init__(
        self,
        step: int,
        sentence: str,
        node_child: str,
        edge: str,
        node_parent: str,
        direction: EdgeDirection,
        rewrite_type: RewriteType | None = None,
        sub_question: str | None = None,
        parent_aliases: tuple[str, ...] = (),
    ) -> None:
        self.step = step
        self.sentence = _clean_field("context sentence", sentence)
        self.node_child = _clean_field("child node", node_child)
        self.edge = _clean_field("edge text", edge)
        self.node_parent = _clean_field("parent node", node_parent)
        self.direction = direction
        self.rewrite_type = rewrite_type
        self.sub_question = None if sub_question is None else _clean_field("sub-question", sub_question)
        if (rewrite_type is None) != (sub_question is None):
            raise AssemblyError("rewrite inputs need both a rewrite type and a previous question")
        self.parent_aliases = tuple(collapse(a) for a in parent_aliases if collapse(a))

    def __eq__(self, other) -> bool:
        if type(other) is not GeneratorInput:
            return NotImplemented
        return _FIELDS(self) == _FIELDS(other)

    @cached_property
    def _serialized(self) -> tuple[str, list[SegmentLabel]]:
        return _serialize(self)

    @property
    def text(self) -> str:
        return self._serialized[0]

    @property
    def segments(self) -> list[SegmentLabel]:
        return self._serialized[1]


_FIELDS = attrgetter(
    "step", "sentence", "node_child", "edge", "node_parent", "direction", "rewrite_type", "sub_question", "parent_aliases"
)


def _clean_field(what: str, value: str) -> str:
    value = collapse(value)
    if not value:
        raise AssemblyError(f"{what} is empty")
    for marker in MARKERS:
        if marker in value:
            raise AssemblyError(f"{what} contains reserved marker {marker}")
    return value


def _parent_alias_token_seqs(gi: GeneratorInput) -> list[list[str]]:
    seqs = []
    for alias in (gi.node_parent, *gi.parent_aliases):
        toks = [strip_punct(t).casefold() for t in alias.split()]
        if toks and all(toks):
            seqs.append(toks)
    # Longest first so the most specific alias wins at each position.
    seqs.sort(key=len, reverse=True)
    return seqs


def _relabel_parent_tokens(tokens: list[str], labels: list[SegmentLabel], lo: int, hi: int, alias_seqs) -> None:
    # Whole-token matching: a token run of tokens[lo:hi] equal to the parent
    # surface (or one of its coreferent mentions) is relabeled NodeP.
    norm = [strip_punct(t).casefold() for t in tokens[lo:hi]]
    n = len(norm)
    i = 0
    while i < n:
        matched = 0
        for seq in alias_seqs:
            k = len(seq)
            if i + k <= n and norm[i : i + k] == seq:
                matched = k
                break
        if matched:
            labels[lo + i : lo + i + matched] = [SegmentLabel.NODE_P] * matched
            i += matched
        else:
            i += 1


def _serialize(gi: GeneratorInput) -> tuple[str, list[SegmentLabel]]:
    child_block = [(NODE_C, SegmentLabel.MARKER), (gi.node_child, SegmentLabel.NODE_C)]
    parent_block = [(NODE_P, SegmentLabel.MARKER), (gi.node_parent, SegmentLabel.NODE_P)]
    edge_block = [(EDGE, SegmentLabel.MARKER), (gi.edge, SegmentLabel.EDGE)]
    if gi.direction is EdgeDirection.CHILD_TO_PARENT:
        middle = child_block + edge_block + parent_block
    else:
        middle = parent_block + edge_block + child_block

    pieces: list[tuple[str, SegmentLabel]] = [(BOS, SegmentLabel.MARKER), (gi.sentence, SegmentLabel.CONTEXT)]
    pieces += middle
    if gi.rewrite_type is not None:
        pieces += [(TYPE, SegmentLabel.MARKER), (gi.rewrite_type.value, SegmentLabel.TYPE)]
        pieces += [(SUBQ, SegmentLabel.MARKER), (gi.sub_question, SegmentLabel.SUBQ)]
    pieces.append((EOS, SegmentLabel.MARKER))

    tokens: list[str] = []
    labels: list[SegmentLabel] = []
    spans: dict[SegmentLabel, tuple[int, int]] = {}
    for text, label in pieces:
        chunk = text.split(" ")
        start = len(tokens)
        tokens.extend(chunk)
        labels.extend([label] * len(chunk))
        if label in (SegmentLabel.CONTEXT, SegmentLabel.SUBQ):
            spans[label] = (start, len(tokens))

    alias_seqs = _parent_alias_token_seqs(gi)
    for label in (SegmentLabel.CONTEXT, SegmentLabel.SUBQ):
        if label in spans:
            lo, hi = spans[label]
            _relabel_parent_tokens(tokens, labels, lo, hi, alias_seqs)
    return " ".join(tokens), labels

