"""hopqg: hop-controlled multi-hop question generation and evaluation."""

__version__ = "0.1.0"

from .context import AnnotatedContext, Sentence, Span, Triple
from .graph import ContextGraph, Edge, Node, build_context_graph
from .planner import (
    ChainNode,
    EdgeDirection,
    ReasoningChain,
    RewriteType,
    plan_chain,
    sample_answer_node,
)
from .pipeline import QuestionTrace, generate_stepwise
from .template import TemplateBackend

__all__ = [
    "AnnotatedContext", "Sentence", "Span", "Triple",
    "ContextGraph", "Edge", "Node", "build_context_graph",
    "ChainNode", "EdgeDirection", "ReasoningChain", "RewriteType",
    "plan_chain", "sample_answer_node",
    "QuestionTrace", "generate_stepwise",
    "TemplateBackend",
    "__version__",
]
