from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

from hopqg.context import AnnotatedContext
from hopqg.graph import build_context_graph

from util import film_context_doc, film3_context_doc, remake_context_doc, star_context_doc

ROOT = Path(__file__).resolve().parent.parent


def _checkout_status() -> str | None:
    """`git status` of the checkout, or None where git cannot tell."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def suite_leaves_checkout_unchanged():
    """Tests write only under their tmp_path: the run must leave no new or
    changed file in the checkout. Outside a git checkout nothing is checked."""
    before = _checkout_status()
    yield
    after = _checkout_status()
    if before is not None and after is not None and after != before:
        new = sorted(set(after.splitlines()) - set(before.splitlines()))
        pytest.fail(f"the test run changed the checkout: {new}")


@pytest.fixture
def film_ctx() -> AnnotatedContext:
    return AnnotatedContext.from_json(film_context_doc())


@pytest.fixture
def film_graph(film_ctx):
    return build_context_graph(film_ctx)


@pytest.fixture
def film3_ctx() -> AnnotatedContext:
    return AnnotatedContext.from_json(film3_context_doc())


@pytest.fixture
def star_ctx() -> AnnotatedContext:
    return AnnotatedContext.from_json(star_context_doc())


@pytest.fixture
def remake_ctx() -> AnnotatedContext:
    return AnnotatedContext.from_json(remake_context_doc())
