#!/usr/bin/env python3
"""Line and code-line counts of a package's Python files.

For each ``.py`` file under DIR (default ``src/qcatalyst``), and in total,
prints the line count as ``wc -l`` gives it and the code-line count.  A code
line is a non-blank line that is not a comment and not part of a module,
class or function docstring:

    python3 scripts/source_size.py
    python3 scripts/source_size.py src/qcatalyst
"""
import argparse
import ast
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "qcatalyst"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) of every module, class and function docstring."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(text: str) -> tuple[int, int]:
    """(lines as wc -l counts them, code lines) of one file's text."""
    skipped = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skipped
    )
    return text.count("\n"), code


def main() -> None:
    parser = argparse.ArgumentParser(description=(__doc__ or "\n").splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args()
    rows = [
        (path.relative_to(args.dir).as_posix(), *size(path.read_text()))
        for path in sorted(args.dir.rglob("*.py"))
    ]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'lines':>6} {'code':>6}  file")
    for name, lines, code in rows:
        print(f"{lines:>6} {code:>6}  {name}")


if __name__ == "__main__":
    main()
