"""Count the code lines of each planner source file.

    python3 tools/code_lines.py [--src path/to/checkout/src]

A code line holds at least one token that is not a comment, a docstring
or layout (newlines, indents).  A docstring here is a string that stands
alone as a statement.  The script prints the count of each file in
src/pdrplan, then their total.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of lines of path that hold code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in LAYOUT
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source root holding pdrplan/ (default: ./src)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.src / "pdrplan").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main()
