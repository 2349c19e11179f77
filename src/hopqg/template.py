"""Deterministic template question realization.

A rule-based stand-in for a trained question generator: useful for offline
runs and as the reference surface form in tests. The wh-word comes from a
small category map (overridable via config); Bridge rewrites replace the
parent span with a descriptive clause, Intersection rewrites attach one more
restriction.
"""

from __future__ import annotations

import re

from .errors import RewriteError
from .geninput import GeneratorInput
from .graph import ContextGraph
from .planner import EdgeDirection, RewriteType
from .textutil import norm_key, strip_punct

WH_BY_CATEGORY = {"person": "Who", "location": "Which place", "other": "What"}

_COPULAR = {"is", "was", "are", "were"}


def key_overrides(overrides: dict[str, str]) -> dict[str, str]:
    """Category overrides keyed by norm_key, as guess_category reads them.
    Of two surfaces with one key, the later wins."""
    return {norm_key(k): v for k, v in overrides.items()}


def guess_category(surface: str, is_named_entity: bool, overrides: dict[str, str] | None = None) -> str:
    """Crude answer-category guess; overrides, keyed by key_overrides, take
    precedence."""
    if overrides:
        hit = overrides.get(norm_key(surface))
        if hit:
            return hit
    tokens = surface.split()
    if is_named_entity and 1 <= len(tokens) <= 3:
        cores = [strip_punct(t) for t in tokens]
        if all(c and c[0].isupper() and c.isalpha() for c in cores):
            return "person"
    return "other"


def descriptor_category(graph: ContextGraph, node_id: int) -> str | None:
    """Head noun of a copular object descriptor, e.g. 'a 1986 action film' -> 'film'."""
    copular = [
        e for e, _ in graph.incident(node_id)
        if e.source == node_id and e.relation.casefold() in _COPULAR
    ]
    copular.sort(key=lambda e: (e.sentence_index, e.relation, e.target))
    for e in copular:
        tokens = [strip_punct(t) for t in graph.node(e.target).surface.split()]
        tokens = [t for t in tokens if t.isalpha()]  # "".isalpha() is False
        if tokens:
            return tokens[-1].lower()
    return None


def template_generate_initial(
    n1: str,
    edge: str,
    answer_category: str = "other",
) -> str:
    """Initial question asking for the answer given its relation to n1.

    The answer slot is replaced by the wh-word and never uttered; the
    remaining statement keeps its relation and node. Templates need neither
    the context sentence nor the edge's direction.
    """
    return f"{WH_BY_CATEGORY.get(answer_category, 'What')} {edge} {n1}?"


def _find_span(q: str, candidates: tuple[str, ...]) -> tuple[int, int] | None:
    for cand in sorted((c for c in candidates if c), key=len, reverse=True):
        m = re.search(rf"(?<!\w){re.escape(cand)}(?!\w)", q, re.IGNORECASE)
        if m:
            return m.start(), m.end()
    return None


def template_rewrite(
    q_prev: str,
    n_i: str,
    n_parent: str,
    e_i: str,
    r_i: RewriteType,
    direction: EdgeDirection,
    parent_category: str | None = None,
    parent_aliases: tuple[str, ...] = (),
) -> str:
    """One rewrite step. Bridge replaces the parent span by a clause built
    from the new hop; Intersection attaches one more restriction to it.
    Templates need the edge, not the context sentence."""
    # direction is the new hop's orientation: PARENT_TO_CHILD means the parent
    # is the subject of e_i, otherwise the child is and the clause goes passive.
    head = e_i.split()[0].lower() if e_i.split() else ""
    if direction is EdgeDirection.PARENT_TO_CHILD:
        predicate = f"{e_i} {n_i}"
        clause = f"the {parent_category or 'one'} that {e_i} {n_i}"
    elif head in ("is", "was", "are", "were", "has", "have", "had"):
        # The relation is already a full copular phrase ("is directed by"):
        # wrapping another passive would double the auxiliaries, so front
        # the child as its subject instead.
        predicate = f"{n_i} {e_i}"
        clause = f"the {parent_category or 'one'} that {n_i} {e_i}"
    else:
        predicate = f"is {e_i} by {n_i}"
        clause = f"the {parent_category or 'one'} that is {e_i} by {n_i}"

    span = _find_span(q_prev, (n_parent, *parent_aliases))
    if r_i is RewriteType.BRIDGE:
        if span is None:
            raise RewriteError(f"Bridge rewrite needs {n_parent!r} to occur in the question")
        lo, hi = span
        return q_prev[:lo] + clause + q_prev[hi:]
    if span is not None:
        lo, hi = span
        return q_prev[:hi] + f" that also {predicate}" + q_prev[hi:]
    base = q_prev.rstrip()
    base = base[:-1].rstrip() if base.endswith("?") else base
    return f"{base} and also {predicate}?"


class TemplateBackend:
    """Generator backend producing deterministic template questions."""

    name = "template"

    def initial(self, gi: GeneratorInput, info) -> str:
        return template_generate_initial(
            gi.node_child, gi.edge,
            answer_category=info.answer_category,
        )

    def rewrite(self, gi: GeneratorInput, info) -> str:
        return template_rewrite(
            gi.sub_question, gi.node_child, gi.node_parent, gi.edge,
            gi.rewrite_type, gi.direction,
            parent_category=info.parent_category,
            parent_aliases=gi.parent_aliases,
        )
