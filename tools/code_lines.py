"""Count the physical lines and the code lines of each ``src/serrin`` module.

    python tools/code_lines.py [ROOT ...]

For each ROOT, a checkout of this repository (by default the one holding
this script), it prints per module of ``ROOT/src/serrin`` and in total the
physical lines, as ``wc -l`` counts them, and the code lines: the lines
that hold a token of code, so that blank lines, comment lines and
docstrings do not count.  Docstrings, the leading string of a module, class
or function body, are found with ``ast``, the tokens with ``tokenize``; a
token that spans several lines, such as a multi-line string, counts on each
of them.  Pass the roots of two trees to compare them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree):
    """``(start, end)`` source positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of the Python text ``source``."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start < b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(lines)


def main(roots):
    for root in roots or [Path(__file__).resolve().parents[1]]:
        modules = sorted(Path(root, "src", "serrin").glob("*.py"))
        if not modules:
            raise SystemExit(f"no modules in {Path(root, 'src', 'serrin')}")
        print(f"{root}\n  {'module':<14} {'lines':>6} {'code':>6}")
        total = (0, 0)
        for path in modules:
            lines = count(path.read_text())
            total = tuple(map(sum, zip(total, lines)))
            print(f"  {path.name:<14} {lines[0]:6d} {lines[1]:6d}")
        print(f"  {'total':<14} {total[0]:6d} {total[1]:6d}")


if __name__ == "__main__":
    main(sys.argv[1:])
