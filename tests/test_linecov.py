"""The branch-direction check of tools/linecov.py, on a small module."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linecov = load_tool(ROOT / "tools" / "linecov.py", "linecov")

# Every decision here goes both ways under exercise() but one: the planted
# `value >= 0`, which the return above it makes always true. The except
# clause always matches and the with block always suppresses, each a jump
# the compiler makes. The while test's entry copy is always true and the
# finally body's copy on the exception path sees a list only; their other
# copies take the other outcome.
PLANTED = '''\
import contextlib


def digits(text, names, seen):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        return "negative"
    while value > 9:
        value //= 10
    with contextlib.suppress(KeyError):
        names[value]
    try:
        for name in names:
            if name == value:
                raise LookupError(name)
    finally:
        if seen is not None:
            seen.append(value)
    if value >= 0 and value % 2:
        return "odd"
    return "even"


if __name__ == "__main__":
    print(digits("7", {}, None))
'''


def exercise(path: Path) -> list:
    planted = load_tool(path, "planted")
    seen = []
    assert planted.digits("x", {}, None) == "negative"
    assert planted.digits("12", {5: "a"}, seen) == "odd"
    assert planted.digits("350", {}, None) == "odd"
    assert planted.digits("24", {9: "b"}, None) == "even"
    with pytest.raises(LookupError):
        planted.digits("47", {4: "c"}, seen)
    return seen


@pytest.mark.skipif(not linecov.has_branch_events(), reason="sys.monitoring has BRANCH events from Python 3.12")
def test_the_branch_check_names_only_the_planted_operand(tmp_path):
    root = tmp_path.resolve()
    path = root / "pkg" / "planted.py"
    path.parent.mkdir()
    path.write_text(PLANTED, encoding="utf-8")
    tools = [sys.monitoring.get_tool(i) for i in range(6)]
    seen, reached, outcomes = linecov.trace(lambda: exercise(path), path.parent, root)
    assert [sys.monitoring.get_tool(i) for i in range(6)] == tools  # the tool id is given back
    assert seen == [1, 4]
    line = PLANTED.splitlines().index("    if value >= 0 and value % 2:") + 1
    assert (str(path), line) in reached
    assert linecov.one_way(outcomes, root) == [("pkg/planted.py", line, 8, "value >= 0", "true")]
