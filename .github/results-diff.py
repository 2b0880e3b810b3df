"""List every ``benchmarks/results/`` cell that differs between two commits.

    python3 .github/results-diff.py BASE HEAD

Run it from inside the repository.  It reads each results file as
committed at BASE and at HEAD (``git show``), and prints one Markdown
line per moved cell, ``file, row, column: A → B``, where a row is named
by its first cell and a column by its header.  A row, column or file on
one side only shows ``-`` on the other.  Nothing moved prints a line
that says so.
"""

import json
import subprocess
import sys

RESULTS = "benchmarks/results/"


def _git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def tables(rev):
    """``{file name: document}`` of every results file at ``rev``."""
    names = _git("ls-tree", "--name-only", f"{rev}:{RESULTS}").split()
    return {name: json.loads(_git("show", f"{rev}:{RESULTS}{name}"))
            for name in names if name.endswith(".json")}


def cells(doc):
    """``{(row, column): value}`` of one results document."""
    columns = doc.get("columns", [])
    return {(row[0], col): value for row in doc.get("rows", [])
            for col, value in zip(columns[1:], row[1:])}


def moved(base, head):
    """``(file, row, column, A, B)`` for every cell that differs."""
    out = []
    for name in sorted(base.keys() | head.keys()):
        a, b = cells(base.get(name, {})), cells(head.get(name, {}))
        for row, col in [*a, *(key for key in b if key not in a)]:
            va, vb = a.get((row, col), "-"), b.get((row, col), "-")
            if va != vb:
                out.append((name, row, col, va, vb))
    return out


def main(base_rev, head_rev):
    found = moved(tables(base_rev), tables(head_rev))
    print(f"### benchmarks/results cells that moved: {base_rev[:12]} (A) "
          f"vs {head_rev[:12]} (B)\n")
    if not found:
        print("no cell moved")
    for name, row, col, a, b in found:
        print(f"- {name}, {row}, {col}: {a} → {b}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
