"""The repository's own tools: ``tools/code_lines.py`` counts code lines."""

import runpy
from pathlib import Path

CODE_LINES = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"))["code_lines"]

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a comment


# a comment line
def area(r):
    """A function docstring."""

    return math.pi * pow(
        r,
        2,
    )


class Shape:
    """A class docstring."""
    sides = 0
'''


def test_code_lines_counts_statements_and_skips_docstrings_comments_and_blanks():
    # import, def, the four lines of the call, class and its assignment
    assert CODE_LINES(SNIPPET) == 8


def test_code_lines_keeps_a_string_that_is_not_a_docstring():
    assert CODE_LINES('x = 1\n"""not a docstring"""\n') == 2
