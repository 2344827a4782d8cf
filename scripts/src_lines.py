"""Count the lines of the qbg package, the size the ROADMAP tracks.

For each module under ``src/qbg`` and in total, prints the line count and
the code-line count: lines that hold code, not counting blank lines,
comment lines and the lines of docstrings (a string literal standing alone
as a statement).

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbg"

#: Tokens that hold no code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstring_lines.update(range(node.lineno, node.end_lineno + 1))
    code_lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code_lines.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code_lines - docstring_lines)


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
