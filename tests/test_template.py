import pytest

from hopqg.errors import RewriteError
from hopqg.graph import build_context_graph
from hopqg.planner import EdgeDirection, RewriteType
from hopqg.template import (
    descriptor_category,
    guess_category,
    key_overrides,
    template_generate_initial,
    template_rewrite,
)
from util import make_context


def test_initial_person_answer():
    q = template_generate_initial("Dial M for Murder", "directed", answer_category="person")
    assert q == "Who directed Dial M for Murder?"


def test_initial_second_example():
    q = template_generate_initial("Top Gun", "starred", answer_category="person")
    assert q == "Who starred Top Gun?"


def test_initial_non_person_uses_what():
    q = template_generate_initial("the mill", "powered")
    assert q.startswith("What ")
    assert q == "What powered the mill?"


def test_bridge_rewrite_replaces_parent_with_clause():
    q = template_rewrite(
        "Who starred Top Gun?", "Tony Scott", "Top Gun", "is directed by",
        RewriteType.BRIDGE, EdgeDirection.PARENT_TO_CHILD, parent_category="film",
    )
    assert q == "Who starred the film that is directed by Tony Scott?"
    assert "Top Gun" not in q


def test_bridge_passive_when_child_is_subject():
    q = template_rewrite(
        "Who starred Top Gun?", "Tony Scott", "Top Gun", "directed",
        RewriteType.BRIDGE, EdgeDirection.CHILD_TO_PARENT, parent_category="film",
    )
    assert q == "Who starred the film that is directed by Tony Scott?"


def test_bridge_copular_relation_fronts_child_subject():
    # "is directed by" already carries its auxiliaries; a second passive
    # wrap would yield "is is directed by by".
    q = template_rewrite(
        "Where was Tony Scott born?", "Top Gun", "Tony Scott", "is directed by",
        RewriteType.BRIDGE, EdgeDirection.CHILD_TO_PARENT, parent_category="person",
    )
    assert q == "Where was the person that Top Gun is directed by born?"


def test_intersection_copular_relation_no_doubled_auxiliaries():
    q = template_rewrite(
        "Who was born in North Shields?", "Top Gun", "Tony Scott",
        "is directed by", RewriteType.INTERSECTION, EdgeDirection.CHILD_TO_PARENT,
    )
    assert q == "Who was born in North Shields and also Top Gun is directed by?"
    assert "is is" not in q and "by by" not in q


def test_bridge_without_category_uses_one():
    q = template_rewrite(
        "Who starred Top Gun?", "Tony Scott", "Top Gun", "is directed by",
        RewriteType.BRIDGE, EdgeDirection.PARENT_TO_CHILD,
    )
    assert "the one that is directed by Tony Scott" in q


def test_bridge_missing_parent_raises():
    with pytest.raises(RewriteError):
        template_rewrite(
            "Who starred Days of Thunder?", "Tony Scott", "Top Gun", "is directed by",
            RewriteType.BRIDGE, EdgeDirection.PARENT_TO_CHILD,
        )


def test_intersection_attaches_after_parent_span():
    q = template_rewrite(
        "Who starred Top Gun?", "a 1986 action film", "Top Gun", "is",
        RewriteType.INTERSECTION, EdgeDirection.PARENT_TO_CHILD,
    )
    assert q == "Who starred Top Gun that also is a 1986 action film?"


def test_intersection_appends_when_parent_absent():
    q = template_rewrite(
        "Who composed Silver Lake?", "the Lyon Conservatory", "Marie Dubois", "founded",
        RewriteType.INTERSECTION, EdgeDirection.PARENT_TO_CHILD,
    )
    assert q == "Who composed Silver Lake and also founded the Lyon Conservatory?"
    q = template_rewrite(
        "Who composed Silver Lake ", "the Lyon Conservatory", "Marie Dubois", "founded",
        RewriteType.INTERSECTION, EdgeDirection.PARENT_TO_CHILD,
    )
    assert q == "Who composed Silver Lake and also founded the Lyon Conservatory?"


def test_intersection_coreferent_alias_hit():
    q = template_rewrite(
        "What was a modern remake of Dial M for Murder?", "a 1998 American crime film",
        "A Perfect Murder", "is",
        RewriteType.INTERSECTION, EdgeDirection.PARENT_TO_CHILD,
        parent_aliases=("It",),
    )
    # no full surface, no 'It' either: falls back to appending
    assert q.endswith("and also is a 1998 American crime film?")


def test_guess_category_and_overrides():
    assert guess_category("Tom Cruise", True) == "person"
    assert guess_category("a 1986 action film", False) == "other"
    assert guess_category("Top Gun", True, {"top gun": "other"}) == "other"
    assert guess_category("Reykjavik", True, {"reykjavik": "location"}) == "location"


def test_overrides_are_keyed_as_node_identity():
    keyed = key_overrides({"Top  Gun": "other", "REYKJAVIK": "location", "top gun": "location"})
    # Of two surfaces with one key, the later wins.
    assert keyed == {"top gun": "location", "reykjavik": "location"}
    assert guess_category(" TOP GUN", True, keyed) == "location"
    assert guess_category("Tom Cruise", True, keyed) == "person"


def test_descriptor_category_from_graph(film_graph):
    top_gun = film_graph.find_node("Top Gun")
    assert descriptor_category(film_graph, top_gun.id) == "film"
    tony = film_graph.find_node("Tony Scott")
    assert descriptor_category(film_graph, tony.id) is None
    # A descriptor with no word of letters names no category; the next one does.
    graph = build_context_graph(make_context(
        ["Top Gun is 1986.", "Top Gun is a film."], [(0, "Top Gun", "is", "1986"), (1, "Top Gun", "is", "a film")],
    ))
    assert descriptor_category(graph, graph.find_node("Top Gun").id) == "film"
