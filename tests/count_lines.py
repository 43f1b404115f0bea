"""Count raw and code lines per module of ``src/fraseo``.

Usage::

    python tests/count_lines.py [PACKAGE_DIR]

Prints one ``raw code path`` line per module, sorted by path, then the
totals. Raw lines are the file's lines. Code lines leave out blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body); every other line that a token spans
counts, so each line of a multi-line expression is a code line.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fraseo"

# Tokens that hold no code of their own.
_LAYOUT = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    )
)
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(raw lines, code lines) of the Python ``source`` text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or any(arg.startswith("-") for arg in argv):
        print("usage: count_lines.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    totals = [0, 0]
    for path in sorted(package.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        totals[0] += raw
        totals[1] += code
        print("%6d %6d %s" % (raw, code, path.name))
    print("%6d %6d total" % tuple(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
