"""Line and branch coverage of src/hopqg under the tier-1 tests, with nothing
beyond pytest and the standard library: sys.monitoring, so Python 3.12 or
later.

    python3 tools/linecov.py

Runs the tests in this process, then prints each line of src/hopqg that no
test reached as path:line, and each decision the tests took only one way as

    path:line:col  <operand source>  only <outcome>

where the outcome is what the operand always was: true or false, none or
not none, iterated or exhausted. The branches the compiler makes for
``except`` matching and ``with`` exits are worked out from the bytecode and
left out; the copies it makes of one operand (a ``while`` test, a
``finally`` body) count as one. Exits non-zero if a test fails, if any line
other than the ``__main__`` guard is never reached, or if an operand goes
one way and is not in KNOWN; 2 on a Python whose sys.monitoring has no
BRANCH event. Tests that start a fresh interpreter are not traced.
"""

import ast
import dis
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (path, operand source) -> why no input can take the other direction.
KNOWN = {
    ("src/hopqg/planner.py", "len(nodes) == len(kept) == d + 1"):
        "an assert states an invariant: the preorder walk indexes each kept node once",
    ("src/hopqg/remote.py", "_QUICKACK is not None"):
        "TCP_QUICKACK exists on Linux and nowhere else, so one platform sees one value",
}

# The outcome of a conditional jump's operand when it falls through and
# when it jumps.
OUTCOMES = {
    "POP_JUMP_IF_FALSE": ("true", "false"),
    "POP_JUMP_IF_TRUE": ("false", "true"),
    "POP_JUMP_IF_NONE": ("not none", "none"),
    "POP_JUMP_IF_NOT_NONE": ("none", "not none"),
    "FOR_ITER": ("iterated", "exhausted"),
}
# A jump right after one of these is the compiler's: an except clause's type
# match, or a with block's exit deciding whether to re-raise.
COMPILER_TESTS = {"CHECK_EXC_MATCH", "CHECK_EG_MATCH", "WITH_EXCEPT_START"}


def has_branch_events() -> bool:
    return hasattr(getattr(getattr(sys, "monitoring", None), "events", None), "BRANCH")


def code_lines(code) -> set[int]:
    """The lines code and each code object nested in it can run."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main_guard_lines(source: str) -> set[int]:
    """The lines of the module's ``if __name__ == '__main__':`` blocks."""
    guards = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    return {line for node in guards for line in range(node.lineno, node.end_lineno + 1)}


def decisions(code, root: Path) -> dict:
    """For each conditional jump of code that the source makes, by offset:
    the operand it tests, the offset it falls through to, and the operand's
    outcome when it falls through and when it jumps. An operand is its path
    relative to root, its source range and its pair of outcomes, so the
    compiler's copies of one test count as one."""
    path = Path(os.path.realpath(code.co_filename)).relative_to(root).as_posix()
    ins = list(dis.get_instructions(code))
    found, before = {}, None
    for op, after in zip(ins, ins[1:]):
        if op.opname in OUTCOMES and before not in COMPILER_TESTS:
            outcomes = OUTCOMES[op.opname]
            found[op.offset] = ((path, *op.positions, tuple(sorted(outcomes))), after.offset, outcomes)
        if op.opname != "TO_BOOL":
            before = op.opname
    return found


def trace(run, src: Path, root: Path):
    """Call run() with LINE and BRANCH events on. Returns its result, the
    (realpath, line) pairs reached, and the outcomes each operand of the
    code under src was seen to take."""
    mon = sys.monitoring
    tool = next(i for i in range(6) if mon.get_tool(i) is None)
    prefix = os.path.realpath(src) + os.sep
    lines: set[tuple[str, int]] = set()
    codes: dict[int, tuple] = {}  # id(code) -> (code, its decisions); holding code keeps the id its own
    outcomes: dict[tuple, set[str]] = {}

    def on_line(code, line):
        lines.add((code.co_filename, line))
        return mon.DISABLE  # a line reports once

    def on_branch(code, offset, dest):
        seen = codes.get(id(code))
        if seen is None:
            mine = os.path.realpath(code.co_filename).startswith(prefix)
            seen = codes[id(code)] = (code, decisions(code, root) if mine else {})
        jump = seen[1].get(offset)
        if jump is None:
            return mon.DISABLE
        operand, fall, (on_fall, on_jump) = jump
        taken = outcomes.setdefault(operand, set())
        taken.add(on_fall if dest == fall else on_jump)
        if len(taken) == 2:
            return mon.DISABLE  # both ways: each copy reports once more at most

    mon.use_tool_id(tool, "linecov")
    try:
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.register_callback(tool, mon.events.BRANCH, on_branch)
        mon.set_events(tool, mon.events.LINE | mon.events.BRANCH)
        result = run()
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return result, {(os.path.realpath(path), line) for path, line in lines}, outcomes


def one_way(outcomes, root: Path) -> list[tuple[str, int, int, str, str]]:
    """(path, line, col, operand source, outcome) for each operand that took
    one outcome only, leaving out the ``__main__`` guard. Columns count
    characters from 1."""
    sources: dict[str, tuple[list[bytes], set[int]]] = {}
    found = []
    for (path, line, end_line, col, end_col, _), taken in sorted(outcomes.items()):
        if path not in sources:
            source = (root / path).read_text(encoding="utf-8")
            sources[path] = ([s.encode() for s in source.splitlines()], main_guard_lines(source))
        text, guard = sources[path]
        if len(taken) == 2 or line in guard:
            continue
        first = text[line - 1]  # positions count UTF-8 bytes
        operand = first[col:end_col] if end_line == line else first[col:] + b" ..."
        found.append((path, line, len(first[:col].decode()) + 1, operand.decode().strip(), *taken))
    return found


def main() -> int:
    if not has_branch_events():
        print("linecov: needs sys.monitoring with BRANCH events (Python 3.12+)", file=sys.stderr)
        return 2
    src, root = ROOT / "src" / "hopqg", Path(os.path.realpath(ROOT))
    status, reached, outcomes = trace(lambda: pytest.main(["-q", str(ROOT / "tests")]), src, root)
    report = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = code_lines(compile(source, str(path), "exec")) - main_guard_lines(source)
        report += [
            f"{path.relative_to(ROOT)}:{line}" for line in sorted(lines)
            if (os.path.realpath(path), line) not in reached
        ]
    known = set()
    for path, line, col, operand, outcome in one_way(outcomes, root):
        if (path, operand) in KNOWN:
            known.add((path, operand))
        else:
            report.append(f"{path}:{line}:{col}  {operand}  only {outcome}")
    report += [f"{path}  {operand}  in KNOWN but not one way" for path, operand in KNOWN.keys() - known]
    print("\n".join(report) or "every line of src/hopqg was reached and every decision went both ways")
    return int(status) or (1 if report else 0)


if __name__ == "__main__":
    sys.exit(main())
