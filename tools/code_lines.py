"""Count the code lines of the Python files under a directory.

    python3 tools/code_lines.py src/trapprob

A code line is a line spanned by a token other than a comment, a line
break, an indent, a dedent or the end marker, so blank and comment-only
lines do not count, and every line of a statement split over several
lines does.  Docstrings do not count either: the first statement of a
module, class or function, when it is a string expression.  Prints each
file's count and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(tree):
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines in the Python source text ``source``."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(lo <= tok.start and tok.end <= hi for lo, hi in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 64
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
