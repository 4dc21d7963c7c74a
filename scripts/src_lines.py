#!/usr/bin/env python3
"""Print the code, docstring, comment and blank lines of each odefilter module.

    python scripts/src_lines.py [PACKAGE_DIR]   # default: src/odefilter

A docstring line is a line of a module, class or function docstring (a
blank line inside one too); a comment line holds a comment and no code;
every other line with a token is code.
"""

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank", "total")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def counts(text: str) -> list:
    """The module's line counts, in ``KINDS`` order."""
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(text.splitlines())
    kinds = [len(code - doc), len(doc), len(comment - code)]
    return kinds + [total - sum(kinds), total]


def main(package: pathlib.Path) -> None:
    paths = sorted(package.glob("*.py"))
    rows = {path.stem: counts(path.read_text(encoding="utf-8")) for path in paths}
    rows["total"] = [sum(column) for column in zip(*rows.values())]
    print(f"{'module':<14}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{n:>10}" for n in row))


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parents[1]
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else root / "src" / "odefilter")
