"""Count the physical and code lines of each module of ``src/hammix``.

A code line is a non-blank line that is not only a comment and lies
outside every docstring (the leading string of a module, class or
function).  Run from anywhere:

    python tools/code_lines.py

It prints one row per module and a total; it checks nothing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hammix"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = _docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in ignored:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:8d}  {code:4d}")
    total_physical = sum(physical for _, physical, _ in rows)
    total_code = sum(code for _, _, code in rows)
    print(f"{'total':<{width}}  {total_physical:8d}  {total_code:4d}")


if __name__ == "__main__":
    main()
