"""Count the code lines of the package: non-blank lines that hold a token
outside comments and docstrings, per module under ``src/misobc`` and in
total.  Standard library and git only.

    python tools/code_lines.py [directory] [--against REV]

With ``--against REV`` each module's count at the git revision REV (read
with ``git show``, without a checkout) is printed beside the working
tree's, with the difference; a module missing on one side counts 0.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and
    its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: bytes) -> int:
    """Lines of ``source`` that hold a token outside comments and docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def code_lines(path: Path) -> int:
    """Lines of the file ``path`` that hold a token outside comments and docstrings."""
    return count(path.read_bytes())


def counts_at(root: Path, rev: str) -> dict[str, int]:
    """Code lines per module of the directory ``root`` at the git revision ``rev``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True).stdout

    names = git("ls-tree", "--name-only", rev, "--", ".").decode().split()
    return {name: count(git("show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count the package's code lines.")
    parser.add_argument("directory", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "misobc")
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision")
    args = parser.parse_args(argv)
    now = {path.name: code_lines(path) for path in args.directory.glob("*.py")}
    if args.against is None:
        for name in sorted(now):
            print(f"{name:<16} {now[name]:>5}")
        print(f"{'total':<16} {sum(now.values()):>5}")
        return
    then = counts_at(args.directory, args.against)
    print(f"{'module':<16} {args.against[:12]:>12} {'tree':>5} {'delta':>6}")
    for name in sorted(then.keys() | now.keys()):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{name:<16} {a:>12} {b:>5} {b - a:>+6}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{'total':<16} {a:>12} {b:>5} {b - a:>+6}")


if __name__ == "__main__":
    main(sys.argv[1:])
