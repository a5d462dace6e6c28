"""Count the lines of Python source files that hold code.

Usage: ``python3 scripts/code_lines.py FILE...`` prints one number, the
total over the files.  A line holds code when a token other than a comment
or a docstring lies on it; blank lines, comment lines and the lines of
module, class and function docstrings do not count.  A statement split
over several lines counts each of them, as does a string that is not a
docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as source:
        text = source.read()
    docstrings = _docstring_lines(ast.parse(text, path))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(text).readline):
        if token.type not in _LAYOUT and token.start[0] not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: code_lines.py FILE...")
    print(sum(code_lines(path) for path in sys.argv[1:]))
