import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", _TOOL)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)


def test_statement_lines_skip_docstrings_and_lines_without_code():
    source = '''"""Module docstring."""
import os

X = 0


def f(flag):
    """Function docstring."""
    global X
    if flag:
        return (1,
                2)
    X = 1
'''
    # import, X = 0, def, if, the return's first line, X = 1; a global
    # statement compiles to no code
    assert unreached.statement_lines(source) == {2, 4, 7, 10, 11, 13}
