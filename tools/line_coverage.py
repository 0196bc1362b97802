"""Print the lines of ``src/sheafplectic`` that the test suite never runs.

Usage::

    python tools/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process under the standard library's
``trace.Trace(count=1)`` and lists, module by module, the executable lines
(those that carry bytecode) that never ran, as line ranges.  Extra
arguments go to pytest, so ``tests/test_cli.py`` traces one file.  Only
the package's own files are traced, which keeps a full run to a few
minutes.

Only this process is traced: the command line calls that tests make as
subprocesses (``python -m sheafplectic ...``) are not counted, so a line
that only such a call reaches is listed as never run.

The exit code is pytest's.
"""

import os
import sys
import trace
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PKG = Path(os.path.realpath(REPO / "src" / "sheafplectic"))


class OnlyPackage:
    """``trace``'s filter, keeping the files under ``PKG`` only.

    ``trace.Trace``'s own filter caches its verdict by module name, so once
    it has skipped one ``__init__.py`` outside the package it skips every
    other, the package's included.  This one caches by file name.
    """

    def __init__(self):
        self.verdicts = {}

    def names(self, filename, modulename):
        if filename not in self.verdicts:
            self.verdicts[filename] = \
                Path(os.path.realpath(filename)).parent != PKG
        return self.verdicts[filename]


def executable_lines(path: Path) -> set:
    """The line numbers that carry bytecode in a source file."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def ranges(numbers) -> str:
    """``1-3, 7`` for the sorted numbers 1, 2, 3, 7."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv) -> int:
    os.chdir(REPO)
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OnlyPackage()
    code = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                        *argv])
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    total = 0
    for path in sorted(PKG.glob("*.py")):
        missed = executable_lines(path) - ran.get(str(path), set())
        total += len(missed)
        if missed:
            print("%s: %s" % (path.relative_to(REPO), ranges(missed)))
    print("%d executable lines never ran" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
