"""Stepwise question generation along a planned reasoning chain.

Generation reads the graph the chain was planned on, and each step's
sentence from the annotated context that graph was built from.

A backend is any object with
    initial(gi: GeneratorInput, info: StepInfo) -> str
    rewrite(gi: GeneratorInput, info: StepInfo) -> str
where gi is the step's serialized input and info carries the answer's
category (``answer_category``) and the parent node's descriptor category
(``parent_category``, None when it has none). Template and remote-service
implementations ship with the package.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AssemblyError, BackendError, GenerationError, RewriteError
from .geninput import GeneratorInput
from .graph import ContextGraph
from .planner import ReasoningChain
from .template import descriptor_category, guess_category


class StepInfo(NamedTuple):
    """Chain-side metadata a backend may use beyond the serialized input."""

    answer_category: str = "other"
    parent_category: str | None = None


class QuestionTrace(NamedTuple):
    questions: list[str]
    answer: str
    d: int
    chain: ReasoningChain
    context: str = ""
    backend: str = "template"

    @property
    def question(self) -> str:
        return self.questions[-1]

    @property
    def intermediates(self) -> list[str]:
        return self.questions[:-1]

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
    graph: ContextGraph,
    chain: ReasoningChain,
    backend,
    category_overrides: dict[str, str] | None = None,
) -> QuestionTrace:
    """Run the initial generator plus d-1 rewrites along the chain planned
    on graph, reading each step's sentence from graph.context.

    category_overrides is keyed by template.key_overrides: a run keys its
    overrides once, not once per chain.

    A failure at step i raises GenerationError carrying the questions
    already produced (steps 1..i-1): an input that cannot be assembled
    (AssemblyError), a failed backend call (BackendError), an inapplicable
    template rewrite (RewriteError) or an empty question.
    """
    questions: list[str] = []
    answer_node = graph.node(chain.nodes[0].node_id)
    answer_category = guess_category(answer_node.surface, answer_node.is_named_entity, category_overrides)

    for node in chain.nodes[1:]:
        i = node.index
        parent_chain_node = chain.nodes[node.parent]
        parent_node = graph.node(parent_chain_node.node_id)
        info = StepInfo(
            answer_category=answer_category,
            parent_category=descriptor_category(graph, parent_node.id),
        )
        try:
            # Step 1 has no rewrite type or previous question; later steps
            # rewrite the question the step before produced.
            gi = GeneratorInput(
                step=i,
                sentence=graph.context.sentences[node.sentence].text,
                node_child=node.surface,
                edge=node.edge_text,
                node_parent=parent_chain_node.surface,
                direction=node.edge_direction,
                rewrite_type=node.rewrite_type if i > 1 else None,
                sub_question=questions[-1] if i > 1 else None,
                parent_aliases=tuple(parent_node.mention_texts),
            )
            if i == 1:
                question = backend.initial(gi, info)
            else:
                question = backend.rewrite(gi, info)
        except AssemblyError as exc:
            raise GenerationError(
                f"input of step {i} cannot be assembled: {exc}", partial_questions=questions, failed_step=i
            ) from exc
        except (BackendError, RewriteError) as exc:
            raise GenerationError(
                f"backend failed at step {i}: {exc}", partial_questions=questions, failed_step=i
            ) from exc
        if not question or not question.strip():
            raise GenerationError(
                f"backend returned an empty question at step {i}", partial_questions=questions, failed_step=i
            )
        questions.append(question.strip())

    return QuestionTrace(
        questions=questions,
        answer=chain.answer_surface,
        d=chain.d,
        chain=chain,
        context=graph.context.context,
        backend=getattr(backend, "name", type(backend).__name__),
    )
