"""Mutation analysis: which statements of a module no behavioural test needs.

Usage, from the repository root::

    python tools/mutants.py MODULE [MODULE ...]

MODULE names a module of ``src/campaignkit`` (``orchestrator``, ``text``).
Each mutant changes one thing inside a function body: it rewrites one simple
statement to ``pass`` (a docstring, ``...`` or ``pass`` is left alone), or it
negates the test of one ``if`` or ``while``. The mutant is written into a
throwaway copy of the repository, where tier-1 runs without
``tests/test_hygiene.py``, the module's own test file first, stopping at its
first failure, for at most ``LIMIT_S`` seconds. The unmutated tests run
there first and must pass.

One line is printed per mutant: ``killed`` (a test failed), ``survived``
(every test passed) or ``hung`` (the limit ran out), then the mutant's
``file:line`` and the text it replaced; then one count per module. The exit
status is 1 if any mutant survived or hung. A survivor is either equivalent
to the code, so the code can go, or behaviour that no test pins.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "campaignkit"
# Above the tests' own 60 s limit per test, so a loop that never ends is a
# test failure (killed), and "hung" is left for a mutant the tests cannot stop.
LIMIT_S = 90
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--ignore=tests/test_hygiene.py"]


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    return node.lineno, node.col_offset, node.end_lineno, node.end_col_offset


def mutants(source: str) -> list[tuple[int, int, int, int, str]]:
    """Each mutant as (line, col, end line, end col, replacement): the source
    span, in lines from 1 and UTF-8 byte columns, that it replaces and with
    what. In source order."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.If, ast.While)):
                test = _segment(lines, *_span(node.test))
                found.append((*_span(node.test), f"not ({test})"))
            if not isinstance(node, ast.stmt) or hasattr(node, "body"):
                continue  # a compound statement's parts are mutated one by one
            if isinstance(node, ast.Pass) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ):
                continue  # already does nothing: a docstring, ``...`` or ``pass``
            found.append((*_span(node), "pass"))
    return sorted(set(found))


def _segment(lines: list[bytes], line: int, col: int, end_line: int, end_col: int) -> str:
    if line == end_line:
        return lines[line - 1][col:end_col].decode("utf-8")
    middle = b"".join(lines[line : end_line - 1])
    return (lines[line - 1][col:] + middle + lines[end_line - 1][:end_col]).decode("utf-8")


def apply(source: str, mutant: tuple[int, int, int, int, str]) -> str:
    """The source with the mutant's span replaced."""
    line, col, end_line, end_col, replacement = mutant
    lines = source.encode("utf-8").splitlines(keepends=True)
    head, tail = lines[line - 1][:col], lines[end_line - 1][end_col:]
    lines[line - 1 : end_line] = [head + replacement.encode("utf-8") + tail]
    return b"".join(lines).decode("utf-8")


def _run(copy: Path, first: list[str]) -> str:
    """Tier-1 in the copy, the ``first`` test files before the rest (pytest
    collects none twice)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([*PYTEST, *first, "tests", "perfbench/tests"], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return "hung"
    return "survived" if done.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    if not names:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    unknown = [name for name in names if not (ROOT / PACKAGE / f"{name}.py").is_file()]
    if unknown:
        print(f"no such module in {PACKAGE}: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy2(ROOT / part, copy)
        if _run(copy, []) != "survived":
            print("the unmutated tests do not pass; nothing to compare against", file=sys.stderr)
            return 2
        totals, clean = [], True
        for name in names:
            rel = PACKAGE / f"{name}.py"
            source = (ROOT / rel).read_text(encoding="utf-8")
            lines = source.encode("utf-8").splitlines(keepends=True)
            counts = dict.fromkeys(("killed", "survived", "hung"), 0)
            # The module's own tests go first: most mutants fail one of them.
            first = [test for test in [f"tests/test_{name}.py"] if (copy / test).is_file()]
            for mutant in mutants(source):
                (copy / rel).write_text(apply(source, mutant), encoding="utf-8")
                outcome = _run(copy, first)
                counts[outcome] += 1
                replaced = _segment(lines, *mutant[:4])
                print(f"{outcome:8} {rel}:{mutant[0]}  {' '.join(replaced.split())[:60]} -> "
                      f"{' '.join(mutant[4].split())[:60]}", flush=True)
            (copy / rel).write_text(source, encoding="utf-8")
            totals.append(f"{name}: {sum(counts.values())} mutants, " + ", ".join(
                f"{n} {outcome}" for outcome, n in counts.items()))
            clean = clean and counts["survived"] == counts["hung"] == 0
        print("\n".join(totals))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
