import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_comments_blanks_and_docstrings_are_not_code():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        # a comment line
        return (1,
                2)


X = """a string
that is not a docstring"""
'''
    # import, class, def, the two lines of the return, the two of X
    assert code_lines.code_lines(source) == 7
