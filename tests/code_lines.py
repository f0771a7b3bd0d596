"""Code lines of the ``fedceo`` package, the size that ROADMAP.md and
CHANGES.md quote.

    python tests/code_lines.py          # each module of src/fedceo, then the total
    python tests/code_lines.py DIR      # the same for the *.py files in DIR

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENCODING, so blank lines, comment lines and the lines
of a bracketed expression that hold only comments do not.  The lines of
module, class and function docstrings do not count either.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedceo"

# ENDMARKER sits on the line after the last one.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> None:
    folder = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(folder.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
