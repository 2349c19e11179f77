"""Line coverage of src/hopqg under the tier-1 tests, with nothing beyond
pytest and the standard library: sys.monitoring, so Python 3.12 or later.

    python3 tools/linecov.py

Runs the tests in this process, then prints each line of src/hopqg that no
test reached as path:line. Exits non-zero if a test fails or if any line
other than the ``__main__`` guard is never reached, and 2 on an older
Python. Tests that start a fresh interpreter are not traced.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def code_lines(code) -> set[int]:
    """The lines code and each code object nested in it can run."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main() -> int:
    if sys.version_info < (3, 12):
        print("linecov: needs Python 3.12+ for sys.monitoring", file=sys.stderr)
        return 2
    mon, tool = sys.monitoring, sys.monitoring.COVERAGE_ID
    events: set[tuple[str, int]] = set()

    def on_line(code, line):
        events.add((code.co_filename, line))
        return mon.DISABLE  # a line reports once

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    status = pytest.main(["-q", str(ROOT / "tests")])
    mon.set_events(tool, 0)
    reached = {(os.path.realpath(path), line) for path, line in events}
    missed = []
    for path in sorted((ROOT / "src" / "hopqg").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        guards = [
            node for node in ast.parse(source).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        skip = {line for node in guards for line in range(node.lineno, node.end_lineno + 1)}
        for line in sorted(code_lines(compile(source, str(path), "exec")) - skip):
            if (os.path.realpath(path), line) not in reached:
                missed.append(f"{path.relative_to(ROOT)}:{line}")
    print("\n".join(missed) or "every line of src/hopqg was reached")
    return int(status) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main())
