"""The line ledger of src/onebitlink: for each module and in total, its
`wc -l` lines split into code, docstring, comment and blank lines.

Run it from anywhere; a directory argument counts that package instead:

    python tests/line_count.py [DIR]

A docstring line is a line of a module's, class's or function's docstring
that holds text. A comment line holds a comment and no code. A blank line
holds nothing, or only whitespace inside a docstring. Every other line is
code, the lines of a multi-line string or bracket among them. So the four
columns add up to `wc -l`.
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "onebitlink")
KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def classify(source):
    """{kind: lines} for the Python source text, with "lines" its `wc -l` count."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line, text in enumerate(source.splitlines(), 1):
        if line in docstring and text.strip():
            counts["docstring"] += 1
        elif line in code and line not in docstring:
            counts["code"] += 1
        elif line in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    counts["lines"] = source.count("\n")
    return counts


def main(src=SRC):
    columns = ("lines",) + KINDS
    total = dict.fromkeys(columns, 0)
    print(f"{'module':<16}" + "".join(f"{name:>11}" for name in columns))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            counts = classify(fh.read())
        for column in columns:
            total[column] += counts[column]
        print(f"{name:<16}" + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in columns))


if __name__ == "__main__":
    main(*sys.argv[1:])
