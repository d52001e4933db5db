"""Count the lines of every Python module under a source directory.

    python3 tools/line_counts.py SRC_DIR > lines.json

Prints ``{"modules": {path: counts}, "total": counts}`` as JSON, the paths
relative to SRC_DIR, where counts holds:

- ``physical``: every line of the file;
- ``non_blank_non_comment``: the lines that are not blank and carry a
  token other than a comment, so a docstring counts on each of its
  non-blank lines;
- ``code``: those lines again, less the ones that only a docstring (of a
  module, class or function, as ``ast`` finds it) covers.

Only the standard library is used (``tokenize`` and ``ast``).  Running it
on two trees' ``src`` and diffing the outputs gives each module's delta
under one convention.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(text: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring expression."""
    spans = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def counts(text: str) -> dict:
    """The three line counts of one module's source text."""
    lines = text.splitlines()
    docs = _docstrings(text)
    tokens, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        tokens.update(span)
        if not any(a <= tok.start and tok.end <= b for a, b in docs):
            code.update(span)
    filled = {k for k, line in enumerate(lines, 1) if line.strip()}
    return {"physical": len(lines), "non_blank_non_comment": len(tokens & filled),
            "code": len(code & filled)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[0])
    modules = {path.relative_to(src).as_posix(): counts(path.read_text())
               for path in sorted(src.rglob("*.py"))}
    total = {key: sum(m[key] for m in modules.values())
             for key in ("physical", "non_blank_non_comment", "code")}
    print(json.dumps({"modules": modules, "total": total}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
