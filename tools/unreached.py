"""List the statements of ``src/rankgames`` that the tier-1 tests never run.

Runs the tier-1 suite in this process under ``sys.settrace``, with line
events recorded only for frames whose code lives in ``src/rankgames``.
Then, per module, prints the statement lines that never ran.  A
statement line is the first line of an ``ast.stmt`` that the compiled
module has code on; the docstrings of modules, classes and functions are
not statements here, as in ``tools/code_lines.py``.  Tests that run the
CLI in a subprocess are not traced, so what only they reach is listed.

Usage: ``python3 tools/unreached.py [pytest arguments]``.  The default
runs the tier-1 command's ``-q --continue-on-collection-errors`` on the
``tests`` directory of the checkout this script sits in, with its
``src`` first on the import path.  Prints one
``<module>: <count> <line>, <line>, ...`` line per module with a line
that never ran, then ``<total> unreached``.  It reports only: the exit
status is 0 whatever the tests give.  Tracing makes the suite about three
times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import _docstring_lines  # noqa: E402  (the rule code_lines.py uses)


def _compiled_lines(code) -> set:
    """Lines that ``code`` or any code object nested in it has code on."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _compiled_lines(const)
    return lines


def statement_lines(source: str, filename: str = "<module>") -> set:
    """First lines of the statements in ``source`` that can run."""
    tree = ast.parse(source)
    firsts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return (firsts - _docstring_lines(tree)) & _compiled_lines(compile(source, filename, "exec"))


def traced(run, root: str):
    """Run ``run()`` with line events recorded for code under ``root``.

    Returns ``run()``'s value and the lines that ran, keyed by file name.
    """
    hits = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        value = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return value, hits


def main(argv) -> int:
    import pytest

    package = _SRC / "rankgames"
    sys.path.insert(0, str(_SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    args = argv or ["-q", "--continue-on-collection-errors", str(_REPO / "tests")]
    status, hits = traced(lambda: pytest.main(args), str(package) + os.sep)
    print(f"\ntests exited with status {int(status)}; statement lines never run:")
    total = 0
    for path in sorted(package.glob("*.py")):
        missed = sorted(statement_lines(path.read_text(encoding="utf-8"), str(path))
                        - hits[str(path)])
        total += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} " + ", ".join(map(str, missed)))
    print(f"{total} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
