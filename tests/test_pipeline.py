import hashlib
import json
import random

import pytest

from hopqg.context import AnnotatedContext
from hopqg.errors import BackendError, GenerationError, HopqgError, RewriteError
from hopqg.graph import build_context_graph
from hopqg.pipeline import generate_stepwise
from hopqg.planner import plan_chain
from hopqg.template import TemplateBackend
from util import (
    film3_context_doc,
    film_context_doc,
    generate_for_context,
    marked_film_context_doc,
    random_context_doc,
    remake_context_doc,
    star_context_doc,
)


def test_film_two_hop_golden(film_ctx):
    trace = generate_for_context(film_ctx, d=2, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    assert trace.intermediates == ["Who starred Top Gun?"]
    assert trace.question == "Who starred the film that is directed by Tony Scott?"
    assert trace.answer == "Tom Cruise"
    assert len(trace.questions) == trace.d == 2


def test_rewrite_count_equals_d_minus_one(star_ctx):
    trace = generate_for_context(star_ctx, d=3, seed=1, backend=TemplateBackend())
    assert len(trace.questions) == 3
    assert len(trace.intermediates) == 2
    assert trace.question == (
        "Who composed Silver Lake and also founded the Lyon Conservatory and also taught Anna Keller?"
    )


def test_linear_three_hop_bridges(film3_ctx):
    trace = generate_for_context(film3_ctx, d=3, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    assert trace.question == (
        "Who starred the film that is directed by the one that was born in North Shields?"
    )


def test_answer_surface_never_in_questions(film_ctx, film3_ctx, star_ctx):
    cases = [
        (film_ctx, 2, "Tom Cruise"), (film3_ctx, 3, "Tom Cruise"), (star_ctx, 3, None),
    ]
    for ctx, d, answer in cases:
        trace = generate_for_context(ctx, d=d, seed=3, backend=TemplateBackend(), answer_text=answer)
        for question in trace.questions:
            assert trace.answer.casefold() not in question.casefold()


def test_template_lengths_non_decreasing(film3_ctx):
    trace = generate_for_context(film3_ctx, d=3, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    lengths = [len(q.split()) for q in trace.questions]
    assert lengths == sorted(lengths)


class FailsAtRewrite:
    name = "failing"

    def __init__(self):
        self.template = TemplateBackend()

    def initial(self, gi, info):
        return self.template.initial(gi, info)

    def rewrite(self, gi, info):
        raise BackendError("boom")


def test_backend_failure_carries_partial_trace(film_ctx):
    graph = build_context_graph(film_ctx)
    chain = plan_chain(graph, d=2, answer_text="Tom Cruise")
    with pytest.raises(GenerationError) as exc_info:
        generate_stepwise(graph, chain, FailsAtRewrite())
    err = exc_info.value
    assert err.failed_step == 2
    assert err.partial_questions == ["Who starred Top Gun?"]


class RewriteInapplicable(FailsAtRewrite):
    def rewrite(self, gi, info):
        raise RewriteError("no span to replace")


@pytest.mark.parametrize(
    "case, message",
    [
        ("rewrite", "backend failed at step 2: no span to replace"),
        ("marker", "input of step 2 cannot be assembled: context sentence contains reserved marker <edge>"),
    ],
    ids=["rewrite", "marker"],
)
def test_rewrite_and_assembly_failures_carry_their_step(film_ctx, case, message):
    if case == "rewrite":
        ctx, backend = film_ctx, RewriteInapplicable()
    else:
        ctx, backend = AnnotatedContext.from_json(marked_film_context_doc()), TemplateBackend()
    graph = build_context_graph(ctx)
    chain = plan_chain(graph, d=2, answer_text="Tom Cruise")
    with pytest.raises(GenerationError) as exc_info:
        generate_stepwise(graph, chain, backend)
    err = exc_info.value
    assert (str(err), err.failed_step, err.partial_questions) == (message, 2, ["Who starred Top Gun?"])


class BlankAtRewrite(FailsAtRewrite):
    def rewrite(self, gi, info):
        return "  "


def test_a_blank_question_fails_its_step_keeping_the_earlier_ones(film_ctx):
    graph = build_context_graph(film_ctx)
    chain = plan_chain(graph, d=2, answer_text="Tom Cruise")
    with pytest.raises(GenerationError) as exc_info:
        generate_stepwise(graph, chain, BlankAtRewrite())
    err = exc_info.value
    assert (str(err), err.failed_step, err.partial_questions) == (
        "backend returned an empty question at step 2", 2, ["Who starred Top Gun?"]
    )


def test_trace_json_schema(film_ctx):
    trace = generate_for_context(film_ctx, d=2, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    doc = trace.to_json()
    assert set(doc) >= {"question", "answer", "d", "chain", "intermediates", "context"}
    assert doc["chain"]["d"] == 2
    assert doc["chain"]["nodes"][0]["surface"] == "Tom Cruise"
    assert doc["intermediates"] == ["Who starred Top Gun?"]
    assert doc["context"] == film_ctx.context


def test_category_override_changes_wh(star_ctx):
    trace = generate_for_context(
        star_ctx, d=1, seed=0, backend=TemplateBackend(),
        category_overrides={"marie dubois": "other"},
    )
    assert trace.question.startswith("What composed")


# sha256 over the traces (or planning and generation errors) of the seeded
# sweep below and over every input a backend call received, so that no edit
# to generation changes a question or a step input silently.
GENERATION_GOLDEN = "16a961605f185c8a8f62d12b531b636d3be847dc86ca063ea1c213c7cdb78bb3"


class RecordingBackend:
    """Template questions, recording what each call receives; the call at
    step `fail_at` raises BackendError instead."""

    name = "recording"

    def __init__(self, calls: list, fail_at: int | None = None):
        self.calls = calls
        self.fail_at = fail_at
        self.template = TemplateBackend()

    def _record(self, gi, info) -> None:
        segments = [s.value for s in gi.segments]
        self.calls.append([gi.step, gi.text, segments, info.answer_category, info.parent_category])
        if gi.step == self.fail_at:
            raise BackendError(f"refused step {gi.step}")

    def initial(self, gi, info):
        self._record(gi, info)
        return self.template.initial(gi, info)

    def rewrite(self, gi, info):
        self._record(gi, info)
        return self.template.rewrite(gi, info)


def _generation_record(graph, d, seed, answer_text=None, fail_at=None):
    calls = []
    try:
        chain = plan_chain(graph, d, seed=seed, answer_text=answer_text)
        outcome = generate_stepwise(graph, chain, RecordingBackend(calls, fail_at)).to_json()
    except GenerationError as exc:
        outcome = [type(exc).__name__, str(exc), exc.failed_step, exc.partial_questions]
    except HopqgError as exc:
        outcome = [type(exc).__name__, str(exc)]
    return [outcome, calls]


def test_generation_golden_digest():
    fixtures = [film_context_doc(), film3_context_doc(), star_context_doc(), remake_context_doc()]
    randoms = [random_context_doc(random.Random(seed)) for seed in range(60)]
    digest = hashlib.sha256()
    outcomes = set()
    for k, doc in enumerate(fixtures + randoms):
        ctx = AnnotatedContext.from_json(doc)
        graph = build_context_graph(ctx)
        pins = [node.surface for node in graph.nodes] if k < len(fixtures) else []
        for d in (1, 2, 3, 4):
            cases = [{"seed": seed} for seed in range(4)]
            cases += [{"seed": 0, "answer_text": pin} for pin in pins]
            cases += [{"seed": 0, "fail_at": step} for step in range(1, d + 1)]
            for case in cases:
                record = _generation_record(graph, d, **case)
                outcomes.add(record[0][0] if isinstance(record[0], list) else "trace")
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    # The sweep makes traces, meets every planning error and stops on
    # refused calls.
    assert outcomes == {"trace", "PlanningError", "InsufficientContextError", "GenerationError"}, outcomes
    assert digest.hexdigest() == GENERATION_GOLDEN
