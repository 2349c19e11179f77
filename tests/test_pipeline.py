import pytest

from hopqg.errors import BackendError, GenerationError
from hopqg.graph import build_context_graph
from hopqg.pipeline import generate_stepwise
from hopqg.planner import plan_chain
from hopqg.template import TemplateBackend
from util import generate_for_context


def test_film_two_hop_golden(film_ctx):
    trace = generate_for_context(film_ctx, d=2, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    assert trace.intermediates == ["Who starred Top Gun?"]
    assert trace.question == "Who starred the film that is directed by Tony Scott?"
    assert trace.answer == "Tom Cruise"
    assert len(trace.steps) == trace.d == 2


def test_rewrite_count_equals_d_minus_one(star_ctx):
    trace = generate_for_context(star_ctx, d=3, seed=1, backend=TemplateBackend())
    assert len(trace.steps) == 3
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
        for step in trace.steps:
            assert trace.answer.casefold() not in step.question.casefold()


def test_template_lengths_non_decreasing(film3_ctx):
    trace = generate_for_context(film3_ctx, d=3, seed=0, backend=TemplateBackend(), answer_text="Tom Cruise")
    lengths = [len(s.question.split()) for s in trace.steps]
    assert lengths == sorted(lengths)


class FailsAtRewrite:
    name = "failing"

    def __init__(self):
        self.template = TemplateBackend()

    def initial(self, gi, info):
        return self.template.initial(gi, info)

    def rewrite(self, gi, info):
        raise BackendError("boom", step=info.step)


def test_backend_failure_carries_partial_trace(film_ctx):
    graph = build_context_graph(film_ctx)
    chain = plan_chain(graph, d=2, answer_text="Tom Cruise")
    with pytest.raises(GenerationError) as exc_info:
        generate_stepwise(film_ctx, graph, chain, FailsAtRewrite())
    err = exc_info.value
    assert err.failed_step == 2
    assert [s.question for s in err.partial_steps] == ["Who starred Top Gun?"]


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
