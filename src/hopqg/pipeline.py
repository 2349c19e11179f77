"""Stepwise question generation along a planned reasoning chain.

A backend is any object with
    initial(gi: GeneratorInput, info: StepInfo) -> str
    rewrite(gi: GeneratorInput, info: StepInfo) -> str
Template and remote-service implementations ship with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import AnnotatedContext
from .errors import BackendError, GenerationError
from .geninput import GeneratorInput, assemble_initial_input, assemble_rewrite_input
from .graph import ContextGraph
from .planner import ReasoningChain
from .template import descriptor_category, guess_category


@dataclass
class StepInfo:
    """Chain-side metadata a backend may use beyond the serialized input."""

    step: int
    child_surface: str
    parent_surface: str
    answer_category: str = "other"
    parent_category: str | None = None


@dataclass
class TraceStep:
    index: int
    question: str
    input: GeneratorInput


@dataclass
class QuestionTrace:
    steps: list[TraceStep]
    answer: str
    d: int
    chain: ReasoningChain
    context: str = ""
    backend: str = "template"

    @property
    def question(self) -> str:
        return self.steps[-1].question

    @property
    def intermediates(self) -> list[str]:
        return [s.question for s in self.steps[:-1]]

    def to_json(self) -> dict:
        return {
            "question": self.question,
            "answer": self.answer,
            "d": self.d,
            "chain": self.chain.to_json(),
            "intermediates": self.intermediates,
            "context": self.context,
            "backend": self.backend,
        }


def generate_stepwise(
    ctx: AnnotatedContext,
    graph: ContextGraph,
    chain: ReasoningChain,
    backend,
    category_overrides: dict[str, str] | None = None,
) -> QuestionTrace:
    """Run the initial generator plus d-1 rewrites along the chain.

    Backend failure at step i raises GenerationError carrying the questions
    already produced (steps 1..i-1).
    """
    steps: list[TraceStep] = []
    answer_node = graph.node(chain.nodes[0].node_id)
    answer_category = guess_category(answer_node.surface, answer_node.is_named_entity, category_overrides)

    for node in chain.nodes[1:]:
        i = node.index
        parent_chain_node = chain.nodes[node.parent]
        parent_node = graph.node(parent_chain_node.node_id)
        sentence_text = ctx.sentence_of(node.sentence).text
        aliases = tuple(parent_node.mention_texts)
        info = StepInfo(
            step=i,
            child_surface=node.surface,
            parent_surface=parent_node.surface,
            answer_category=answer_category,
            parent_category=descriptor_category(graph, parent_node.id),
        )
        try:
            if i == 1:
                gi = assemble_initial_input(
                    node.surface, parent_chain_node.surface, sentence_text,
                    node.edge_text, node.edge_direction, parent_aliases=aliases,
                )
                question = backend.initial(gi, info)
            else:
                gi = assemble_rewrite_input(
                    steps[-1].question, node.surface, parent_chain_node.surface,
                    sentence_text, node.edge_text, node.rewrite_type,
                    node.edge_direction, step=i, parent_aliases=aliases,
                )
                question = backend.rewrite(gi, info)
        except BackendError as exc:
            raise GenerationError(
                f"backend failed at step {i}: {exc}", partial_steps=steps, failed_step=i
            ) from exc
        if not question or not question.strip():
            raise GenerationError(
                f"backend returned an empty question at step {i}", partial_steps=steps, failed_step=i
            )
        steps.append(TraceStep(i, question.strip(), gi))

    return QuestionTrace(
        steps=steps,
        answer=chain.answer_surface,
        d=chain.d,
        chain=chain,
        context=ctx.context,
        backend=getattr(backend, "name", type(backend).__name__),
    )
