"""Line census of ``src/repro``: code lines per package and in total.

A code line carries at least one token that is not a comment; blank
lines, comment-only lines and docstrings do not count.  ``make census``
prints it; simplicity PRs quote the total before/after in CHANGES.md.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize
from collections import Counter

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, (doc.end_lineno or doc.lineno) + 1))
    return len(lines)


if __name__ == "__main__":
    default = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default
    per_package: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "(top level)"
        per_package[package] += code_lines(path.read_text(encoding="utf-8"))
    for package, count in sorted(per_package.items()):
        print(f"{count:7d}  {package}")
    print(f"{sum(per_package.values()):7d}  total")
