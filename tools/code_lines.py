"""Count code lines of Python modules: no docstrings, comments or blank lines.

A line counts when it holds a token other than a comment and lies outside
every module, class and function docstring. Usage:

    python tools/code_lines.py src/ergochain

prints the count of each module under the directory, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1])
    counts = {path.relative_to(root): code_lines(path.read_text()) for path in sorted(root.rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
