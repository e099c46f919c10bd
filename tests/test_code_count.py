"""``tools/code_count.py``: which lines of a source count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_count.py"
spec = importlib.util.spec_from_file_location("code_count", TOOL)
code_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_count)

SOURCE = '''"""A module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring."""
    y = (x +
         1)

    s = """a string
that is no docstring"""
    return y, s


class C:
    """A class docstring."""

    z = 1
'''


def test_counts_lines_that_hold_a_token_outside_docstrings_and_comments():
    # import, def, both lines of y and of s, return, class, z
    assert code_count.code_lines(SOURCE) == 9
