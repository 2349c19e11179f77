import random

import pytest

from hopqg.errors import AssemblyError
from hopqg.geninput import MARKERS, GeneratorInput, SegmentLabel
from hopqg.planner import EdgeDirection, RewriteType
from hopqg.textutil import strip_punct

from oracles import oracle_segments, parse_input


def test_initial_serialization_child_to_parent():
    gi = GeneratorInput(
        step=1, sentence="Top Gun starred Tom Cruise.", node_child="Top Gun", edge="starred",
        node_parent="Tom Cruise", direction=EdgeDirection.CHILD_TO_PARENT,
    )
    assert gi.text == (
        "<bos> Top Gun starred Tom Cruise. <nodeC> Top Gun <edge> starred <nodeP> Tom Cruise <eos>"
    )


def test_reversed_direction_swaps_node_blocks():
    gi = GeneratorInput(
        step=1, sentence="Marie Dubois composed Silver Lake.", node_child="Silver Lake", edge="composed",
        node_parent="Marie Dubois", direction=EdgeDirection.PARENT_TO_CHILD,
    )
    assert gi.text.index("<nodeP>") < gi.text.index("<nodeC>")
    assert "<nodeP> Marie Dubois <edge> composed <nodeC> Silver Lake" in gi.text


def test_rewrite_serialization_carries_type_and_subq():
    gi = GeneratorInput(
        step=2, sentence="Top Gun is directed by Tony Scott.", node_child="Tony Scott",
        edge="is directed by", node_parent="Top Gun", direction=EdgeDirection.PARENT_TO_CHILD,
        rewrite_type=RewriteType.INTERSECTION, sub_question="Who starred Top Gun?",
    )
    assert "<type> Intersection <subq> Who starred Top Gun?" in gi.text
    assert gi.text.endswith("<eos>")


def test_marker_collision_rejected():
    with pytest.raises(AssemblyError, match="reserved marker"):
        GeneratorInput(
            step=1, sentence="s", node_child="a <edge> b", edge="rel", node_parent="c",
            direction=EdgeDirection.CHILD_TO_PARENT,
        )


def test_a_field_holding_a_less_than_sign_but_no_marker_assembles():
    gi = GeneratorInput(
        step=1, sentence="In the proof a < b holds.", node_child="a < b", edge="holds in",
        node_parent="the proof", direction=EdgeDirection.CHILD_TO_PARENT,
    )
    text, segments = gi.serialize()
    assert text == "<bos> In the proof a < b holds. <nodeC> a < b <edge> holds in <nodeP> the proof <eos>"
    assert len(text.split(" ")) == len(segments)
    assert segments == oracle_segments(gi)


def test_segments_align_and_relabel_parent_tokens():
    gi = GeneratorInput(
        step=2, sentence="Top Gun is directed by Tony Scott.", node_child="Tony Scott",
        edge="is directed by", node_parent="Top Gun", direction=EdgeDirection.PARENT_TO_CHILD,
        rewrite_type=RewriteType.BRIDGE, sub_question="Who starred Top Gun?",
        parent_aliases=("It",),
    )
    tokens = gi.text.split(" ")
    assert len(tokens) == len(gi.segments)
    # brute-force expectation token by token
    parent_seqs = [["top", "gun"], ["it"]]
    expected = []
    region = None
    for tok in tokens:
        if tok in MARKERS:
            expected.append(SegmentLabel.MARKER)
            region = {
                "<bos>": SegmentLabel.CONTEXT, "<nodeC>": SegmentLabel.NODE_C,
                "<edge>": SegmentLabel.EDGE, "<nodeP>": SegmentLabel.NODE_P,
                "<type>": SegmentLabel.TYPE, "<subq>": SegmentLabel.SUBQ,
            }.get(tok)
        else:
            expected.append(region)
    for seq in parent_seqs:
        k = len(seq)
        for i in range(len(tokens) - k + 1):
            window = [strip_punct(t).casefold() for t in tokens[i : i + k]]
            inside = all(
                expected[j] in (SegmentLabel.CONTEXT, SegmentLabel.SUBQ, SegmentLabel.NODE_P)
                and gi.segments[j] is not SegmentLabel.MARKER
                for j in range(i, i + k)
            )
            if window == seq and inside and expected[i] is not SegmentLabel.NODE_P:
                for j in range(i, i + k):
                    if expected[j] in (SegmentLabel.CONTEXT, SegmentLabel.SUBQ):
                        expected[j] = SegmentLabel.NODE_P
    assert gi.segments == expected
    # the "Top Gun" tokens inside both sentence and sub-question became NodeP
    ctx_start = 1
    assert gi.segments[ctx_start : ctx_start + 2] == [SegmentLabel.NODE_P, SegmentLabel.NODE_P]


def test_coreferent_alias_relabeled():
    gi = GeneratorInput(
        step=2, sentence="It was a modern remake of Dial M for Murder.", node_child="Dial M for Murder",
        edge="was a modern remake of", node_parent="A Perfect Murder",
        direction=EdgeDirection.CHILD_TO_PARENT, rewrite_type=RewriteType.BRIDGE,
        sub_question="What was a modern remake of Dial M for Murder?", parent_aliases=("It",),
    )
    tokens = gi.text.split(" ")
    it_positions = [i for i, t in enumerate(tokens) if t == "It"]
    assert it_positions
    assert all(gi.segments[i] is SegmentLabel.NODE_P for i in it_positions)
    # A mention of whitespace alone is no alias.
    fields = {name: getattr(gi, name) for name in ("step", "sentence", "node_child", "edge", "node_parent",
                                                  "direction", "rewrite_type", "sub_question")}
    assert GeneratorInput(**fields, parent_aliases=(" ", "It", "\t")) == gi


SAFE_WORDS = ["alpha", "beta", "Gamma", "delta,", "Ep: silon".replace(" ", ""), "zeta9", "'eta'"]


def random_input(rng: random.Random) -> GeneratorInput:
    def words(k):
        return " ".join(rng.choice(SAFE_WORDS) for _ in range(rng.randint(1, k)))

    direction = rng.choice(list(EdgeDirection))
    if rng.random() < 0.5:
        return GeneratorInput(
            step=1, sentence=words(8), node_child=words(3), edge=words(2),
            node_parent=words(3), direction=direction,
        )
    return GeneratorInput(
        step=rng.randint(2, 5), sentence=words(8), node_child=words(3), edge=words(2),
        node_parent=words(3), direction=direction,
        rewrite_type=rng.choice(list(RewriteType)), sub_question=words(6) + "?",
    )


def test_round_trip_identity_random():
    rng = random.Random(4)
    for _ in range(300):
        gi = random_input(rng)
        back = parse_input(gi.text, step=gi.step, parent_aliases=gi.parent_aliases)
        assert back == gi
        assert back.text == gi.text
        assert back.segments == gi.segments


@pytest.mark.parametrize("field, what", [
    ("sentence", "context sentence"), ("node_child", "child node"), ("edge", "edge text"),
    ("node_parent", "parent node"), ("sub_question", "sub-question"),
])
def test_an_empty_field_is_an_assembly_error_naming_it(field, what):
    fields = dict(
        step=2, sentence="s t", node_child="a b", edge="rel", node_parent="c",
        direction=EdgeDirection.CHILD_TO_PARENT, rewrite_type=RewriteType.BRIDGE, sub_question="Who is c?",
    )
    GeneratorInput(**fields)  # valid before the field is blanked
    with pytest.raises(AssemblyError) as exc_info:
        GeneratorInput(**{**fields, field: " \t "})
    assert str(exc_info.value) == f"{what} is empty"


def test_parse_rejects_malformed():
    good = GeneratorInput(
        step=1, sentence="s t", node_child="a b", edge="rel", node_parent="c",
        direction=EdgeDirection.CHILD_TO_PARENT,
    ).text
    with pytest.raises(AssemblyError):
        parse_input(good.replace("<edge>", "<buckle>"))
    with pytest.raises(AssemblyError):
        parse_input(good + " <edge> again <eos>")
    with pytest.raises(AssemblyError):
        parse_input("<bos> s <nodeC> a <edge> r <nodeP> b <type> Bridge <eos>")
    with pytest.raises(AssemblyError, match="empty block"):
        parse_input("<bos> s <nodeC> <edge> r <nodeP> b <eos>")


def test_marker_order_fixed_given_direction():
    gi = GeneratorInput(
        step=2, sentence="s", node_child="Tony Scott", edge="rel", node_parent="Top Gun",
        direction=EdgeDirection.CHILD_TO_PARENT, rewrite_type=RewriteType.BRIDGE,
        sub_question="Who starred Top Gun?",
    )
    order = [t for t in gi.text.split(" ") if t in MARKERS]
    assert order == ["<bos>", "<nodeC>", "<edge>", "<nodeP>", "<type>", "<subq>", "<eos>"]


# Tokens whose casefold is longer (ß, İ, ﬁ, ŉ), their folded and upper-case
# forms, punctuation-only tokens and words that overlapping aliases share.
ODD_WORDS = [
    "Straße", "STRASSE", "strasse,", "İzmir", "i̇zmir", "ﬁrst", "FIRST.", "ŉ", "ʼN", "--", "...", "'", "(ß)",
    "Top", "Gun", "top", "gun,", "Gun's", "Tom", "Cruise", "It", "it.",
]


def odd_input(rng: random.Random) -> GeneratorInput:
    def words(lo, hi):
        return " ".join(rng.choice(ODD_WORDS) for _ in range(rng.randint(lo, hi)))

    parent = words(1, 3)
    parent_words = parent.split()
    aliases = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            # An alias overlapping the parent surface: a run of its words.
            lo = rng.randrange(len(parent_words))
            aliases.append(" ".join(parent_words[lo : rng.randint(lo + 1, len(parent_words))]))
        else:
            aliases.append(words(1, 2))
    fields = dict(
        step=1, sentence=words(1, 12), node_child=words(1, 3), edge=words(1, 2), node_parent=parent,
        direction=rng.choice(list(EdgeDirection)), parent_aliases=tuple(aliases),
    )
    if rng.random() < 0.5:
        fields.update(step=rng.randint(2, 5), rewrite_type=rng.choice(list(RewriteType)), sub_question=words(1, 8))
    return GeneratorInput(**fields)


def test_serialize_matches_the_per_token_segment_oracle():
    rng = random.Random(31)
    relabeled = 0
    for _ in range(3000):
        gi = odd_input(rng)
        text, segments = gi.serialize()
        assert len(text.split(" ")) == len(segments)
        assert segments == oracle_segments(gi), text
        assert parse_input(text, step=gi.step, parent_aliases=gi.parent_aliases) == gi
        body = segments[1:segments.index(SegmentLabel.MARKER, 1)]
        relabeled += SegmentLabel.NODE_P in body
    # The parent or an alias is found in about a third of the sentences.
    assert relabeled > 750


def test_a_rewrite_type_without_a_previous_question_is_an_assembly_error():
    with pytest.raises(AssemblyError, match="need both a rewrite type and a previous question"):
        GeneratorInput(
            step=2, sentence="s", node_child="a", edge="rel", node_parent="c",
            direction=EdgeDirection.CHILD_TO_PARENT, rewrite_type=RewriteType.BRIDGE,
        )


def test_an_input_never_equals_another_type():
    gi = GeneratorInput(
        step=1, sentence="s", node_child="a", edge="rel", node_parent="c", direction=EdgeDirection.CHILD_TO_PARENT,
    )
    assert gi.__eq__("x") is NotImplemented
    assert gi != "x" and not gi == "x"
    assert gi == GeneratorInput(
        step=1, sentence="s", node_child="a", edge="rel", node_parent="c", direction=EdgeDirection.CHILD_TO_PARENT,
    )
