"""Print the code-line count of ``src/dpnets``: the lines that hold a token
outside docstrings and comments.  Blank, comment-only and docstring lines do
not count; a line that continues a statement or a multi-line string does.

Usage: ``python tools/code_count.py [REV]``.  Without REV it counts the
working tree; with it, the files of that git revision, read with ``git archive``.
"""

import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dpnets"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first.lineno)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP and not (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(rev: str | None):
    if rev is None:
        for path in sorted((ROOT / PACKAGE).glob("*.py")):
            yield path.read_text()
        return
    archive = subprocess.run(["git", "archive", rev, PACKAGE], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in sorted(tar.getmembers(), key=lambda m: m.name):
            if member.isfile() and member.name.endswith(".py") and "/" not in member.name[len(PACKAGE) + 1 :]:
                yield tar.extractfile(member).read().decode()


if __name__ == "__main__":
    print(sum(map(code_lines, sources(sys.argv[1] if len(sys.argv) > 1 else None))))
