#!/usr/bin/env python3
"""Code, docstring, comment and blank lines of each module of two checkouts.

    python3 scripts/code_lines.py A_DIR B_DIR

Each directory is a checkout of the repository; the modules counted are the
``*.py`` files under its ``src/``.  Every line of a module is one kind:
- docstring: a line of a module, class or function docstring (``ast``);
- code: any other line holding a token that is not a comment, a line of a
  multi-line string included (``tokenize``);
- comment: a line whose only token is a comment;
- blank: a line of whitespace alone.

Prints a table with one row per module (its path under ``src/``) and a
total row: per kind, A's count, B's count and B - A.  A module in one
checkout alone counts 0 lines in the other.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

#: tokens that put no code on a line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """{kind: lines} of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comments:
            kind = "comment"
        else:
            kind = "blank" if not line.strip() else "code"  # e.g. a lone backslash
        counts[kind] += 1
    return counts


def checkout_lines(checkout: Path) -> dict[str, dict[str, int]]:
    """{module path under src/: count_lines} of a checkout's modules."""
    src = checkout / "src"
    return {path.relative_to(src).as_posix(): count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def table(a: dict[str, dict[str, int]], b: dict[str, dict[str, int]]) -> list[str]:
    """The report's lines: a header, a row per module, then the totals."""
    zero = dict.fromkeys(KINDS, 0)
    rows = {m: (a.get(m, zero), b.get(m, zero)) for m in sorted(a.keys() | b.keys())}
    rows["total"] = tuple({k: sum(side[k] for side in sides.values()) for k in KINDS}
                          for sides in (a, b))
    width = max(map(len, rows))
    lines = [(" " * width + "".join(f" | {kind:^20}" for kind in KINDS)).rstrip(),
             " " * width + " |      A      B      Δ" * len(KINDS)]
    for module, (x, y) in rows.items():
        lines.append(module.ljust(width) + "".join(
            f" | {x[k]:6d} {y[k]:6d} {y[k] - x[k]:+6d}" for k in KINDS))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="a checkout of the repository (A)")
    ap.add_argument("b", type=Path, help="another checkout (B)")
    args = ap.parse_args(argv)
    for checkout in (args.a, args.b):
        if not (checkout / "src").is_dir():
            ap.error(f"{checkout}: no src/")
    print("\n".join(table(checkout_lines(args.a), checkout_lines(args.b))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
