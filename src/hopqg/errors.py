"""Exception types shared across the package, JSON loading that names
`path:line` in its errors, and the one rule for a JSON integer."""

from __future__ import annotations

import json


class HopqgError(Exception):
    """Base class for all package errors."""


class AnnotationError(HopqgError):
    """Malformed annotated context or input record (bad spans, schema violations)."""


class NodeNotFoundError(HopqgError):
    """No graph node matches the queried text, even by token overlap."""


class PlanningError(HopqgError):
    """Chain planning cannot proceed (e.g. no eligible answer node)."""


class InsufficientContextError(PlanningError):
    """The graph component is too small for the requested difficulty."""

    def __init__(self, message: str, max_d: int):
        super().__init__(message)
        self.max_d = max_d


class AssemblyError(HopqgError):
    """Generator input cannot be assembled (marker collision, missing field)."""


class RewriteError(HopqgError):
    """A template rewrite is inapplicable to the previous question."""


class BackendError(HopqgError):
    """A backend call failed (network, bad status, malformed response)."""


class GenerationError(HopqgError):
    """Stepwise generation aborted; carries the questions produced so far."""

    def __init__(self, message: str, partial_questions: list[str], failed_step: int):
        super().__init__(message)
        self.partial_questions = partial_questions
        self.failed_step = failed_step


class MetricError(HopqgError):
    """Metric preconditions violated (empty corpus, too few items)."""


class ConfigError(HopqgError):
    """Invalid pipeline configuration."""


def invalid_json(path: str, exc: json.JSONDecodeError, line: int | None = None) -> str:
    """Error text naming `path:line`; pass `line` when one line was decoded alone."""
    line = exc.lineno if line is None else line
    return f"{path}:{line}: invalid JSON: {exc.msg} (line {line}, column {exc.colno})"


def is_integral(value) -> bool:
    """Whether a decoded JSON value is an integral number: 2 or 2.0, never
    1.7, true or "3"."""
    return type(value) in (int, float) and value % 1 == 0


def load_json(path: str, error: type[HopqgError] = AnnotationError):
    """Decode a whole JSON file; a syntax error raises `error` naming `path:line`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(invalid_json(path, exc)) from exc
