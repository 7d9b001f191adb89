"""Print the code lines of each dpdp module and their total.

A code line is a non-blank line that is not a comment and lies outside
every module, class and function docstring; the docstrings are found with
ast.  Standard library only; pytest does not collect this file.

    python3 tests/code_lines.py
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dpdp"


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docstrings
    )


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")


if __name__ == "__main__":
    main()
