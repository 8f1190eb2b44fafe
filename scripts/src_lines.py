#!/usr/bin/env python3
"""Count the lines of the Python files under ``src/`` by kind.

Usage, from the root of a checkout::

    python3 scripts/src_lines.py [PATH ...]

Each physical line of every ``*.py`` file under the given paths (default
``src``) falls into exactly one kind, read from the stdlib ``tokenize``
stream:

* ``docstring`` -- a line of a string literal that is a statement of its
  own (a module, class or function docstring, or an attribute docstring),
  blank lines inside it included;
* ``code`` -- a line with any other token;
* ``comment`` -- a line whose only token is a comment;
* ``blank`` -- a line with nothing but whitespace.

A line that holds code and a docstring or a comment counts as code.  Prints
one row per file and a total.
"""

from __future__ import annotations

import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
#: Statement boundaries: tokens that carry no code of their own.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def count_lines(path: pathlib.Path) -> dict[str, int]:
    """The number of lines of each kind in one Python file."""
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    code, docstring = set(), set()
    # without line breaks and comments, a string between two statement
    # boundaries is a statement of its own
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(significant):
        rows = set(range(tok.start[0], tok.end[0] + 1))
        if tok.type == tokenize.STRING:
            before = significant[i - 1].type if i else tokenize.NEWLINE
            after = significant[i + 1].type if i + 1 < len(significant) else tokenize.NEWLINE
            if before in _LAYOUT and after in _LAYOUT:
                docstring |= rows
                continue
        if tok.type not in _LAYOUT:
            code |= rows
    comment = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
    total = len(path.read_text(encoding="utf-8").splitlines())
    docstring -= code
    comment -= code | docstring
    counts = {"code": len(code), "docstring": len(docstring), "comment": len(comment)}
    counts["blank"] = total - sum(counts.values())
    return counts


def main(argv=None) -> int:
    roots = [pathlib.Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src"]]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}" + "".join(f"{k:>10}" for k in KINDS) + f"{'all':>10}")
    for f in files:
        counts = count_lines(f)
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{str(f):<40}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<40}" + "".join(f"{totals[k]:>10}" for k in KINDS)
          + f"{sum(totals.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
