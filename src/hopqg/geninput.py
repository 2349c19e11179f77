"""Serialized generator inputs with per-token segment labels.

Rewrite-step layout:
    <bos> S_i <nodeC> N_i <edge> E_i <nodeP> N_P(i) <type> R_i <subq> Q_{i-1} <eos>
The child and parent blocks exchange positions when the parent points to the
child; the initial step omits the <type> and <subq> blocks. Tokens are joined
by single spaces, so text.split(" ") aligns with the segment label list.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .errors import AssemblyError
from .planner import EdgeDirection, RewriteType
from .textutil import clean_tokens, collapse

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
    it is made, so a bad field raises AssemblyError there. ``serialize()``
    computes the serialized sequence and its per-token labels on each call,
    and only the remote backend calls it; ``text`` and ``segments`` read one
    part each. Two inputs are equal when their fields are."""

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
        self.parent_aliases = tuple(a for a in map(collapse, parent_aliases) if a)

    def __eq__(self, other) -> bool:
        if type(other) is not GeneratorInput:
            return NotImplemented
        return _FIELDS(self) == _FIELDS(other)

    def serialize(self) -> tuple[str, list[SegmentLabel]]:
        """The serialized sequence and one label per token of its split(" ")."""
        first = (NODE_C, self.node_child, SegmentLabel.NODE_C)
        second = (NODE_P, self.node_parent, SegmentLabel.NODE_P)
        if self.direction is not EdgeDirection.CHILD_TO_PARENT:
            first, second = second, first
        blocks = [(BOS, self.sentence, SegmentLabel.CONTEXT), first, (EDGE, self.edge, SegmentLabel.EDGE), second]
        if self.rewrite_type is not None:
            blocks += ((TYPE, self.rewrite_type.value, SegmentLabel.TYPE), (SUBQ, self.sub_question, SegmentLabel.SUBQ))
        aliases = self._alias_index()
        pieces: list[str] = []
        labels: list[SegmentLabel] = []
        for marker, block, label in blocks:
            pieces += (marker, block)
            labels.append(SegmentLabel.MARKER)
            if label is SegmentLabel.CONTEXT or label is SegmentLabel.SUBQ:
                labels += _relabeled(block, label, aliases)
            else:
                labels += [label] * (block.count(" ") + 1)
        pieces.append(EOS)
        labels.append(SegmentLabel.MARKER)
        return " ".join(pieces), labels

    @property
    def text(self) -> str:
        return self.serialize()[0]

    @property
    def segments(self) -> list[SegmentLabel]:
        return self.serialize()[1]

    def _alias_index(self) -> dict[str, list[list[str]]]:
        """The match tokens of the parent surface and of each alias with no
        punctuation-only token, by first token, longest first so the most
        specific alias wins at each position."""
        seqs = [toks for alias in (self.node_parent, *self.parent_aliases) if all(toks := clean_tokens(alias))]
        seqs.sort(key=len, reverse=True)
        index: dict[str, list[list[str]]] = {}
        for toks in seqs:
            index.setdefault(toks[0], []).append(toks)
        return index


_FIELDS = attrgetter(
    "step", "sentence", "node_child", "edge", "node_parent", "direction", "rewrite_type", "sub_question", "parent_aliases"
)


def _clean_field(what: str, value: str) -> str:
    value = collapse(value)
    if not value:
        raise AssemblyError(f"{what} is empty")
    # Every marker starts with "<".
    if "<" in value:
        for marker in MARKERS:
            if marker in value:
                raise AssemblyError(f"{what} contains reserved marker {marker}")
    return value


def _relabeled(block: str, label: SegmentLabel, aliases: dict[str, list[list[str]]]) -> list[SegmentLabel]:
    """label for each token of block, except NodeP for each whole-token run
    equal to the parent surface or one of its coreferent mentions. The block
    is collapsed, and casefolding makes no whitespace (see
    textutil.match_tokens), so its clean_tokens line up with its split(" ")
    and equal each token stripped of punctuation, then casefolded."""
    labels = [label] * (block.count(" ") + 1)
    norm = clean_tokens(block)
    end = 0  # past the last match: runs do not overlap
    for i in [i for i, tok in enumerate(norm) if tok in aliases]:
        if i < end:
            continue
        for seq in aliases[norm[i]]:
            k = len(seq)
            if norm[i : i + k] == seq:
                labels[i : i + k] = [SegmentLabel.NODE_P] * k
                end = i + k
                break
    return labels
