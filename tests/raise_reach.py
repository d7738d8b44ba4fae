"""Run the Tier-1 suite and list every `raise` in src/fuselab that no command-line call in it executes.

Runs what Tier-1 runs (tests/ and bench/, with --continue-on-collection-errors)
in-process under a sys.settrace line tracer that is active only while
fuselab.cli.main runs, and records each package line executed there. A
`raise` statement whose first line was never executed is one no input reaches
through the command line: either a re-check of a fact the program already
checked where it entered, or a check of outside input that no test feeds
through the CLI. The first kind should be deleted, the second given a test.

    PYTHONPATH=src python tests/raise_reach.py

Exits 1, listing the unreached statements, if there is any or the suite
fails; 0 otherwise. It takes no arguments, and pytest does not collect it (it
is not test_*.py). CI runs it in place of the plain Tier-1 step on one Python
version.
"""

from __future__ import annotations

import ast
import linecache
import sys
from pathlib import Path

import pytest

from fuselab import cli
from test_reach import PACKAGE, package_modules

TESTS = Path(__file__).resolve().parent
SUITE = [str(TESTS), str(TESTS.parent / "bench")]  # Tier-1's testpaths


def raise_lines() -> dict:
    """(file, line) -> the source text of each raise statement's first line in the package."""
    return {(str(path), node.lineno): linecache.getline(str(path), node.lineno).strip()
            for path, module in package_modules() for node in ast.walk(module) if isinstance(node, ast.Raise)}


class MainLineTracer:
    """Records (file, line) of every package line executed inside cli.main."""

    def __init__(self):
        self.main_code = cli.main.__code__
        self.files = {str(path) for path in PACKAGE.glob("*.py")}
        self.resolved = {}  # co_filename -> its resolved path if a package file, else None
        self.depth = 0  # cli.main frames on the stack
        self.executed = set()

    def __call__(self, frame, event, arg):  # the global hook: one call per new frame
        code = frame.f_code
        if code is self.main_code:
            self.depth += 1
            return self._main_frame
        if self.depth and self._package_file(code.co_filename):
            return self._package_frame
        return None

    def _package_file(self, filename: str) -> str | None:
        if filename not in self.resolved:
            path = str(Path(filename).resolve())
            self.resolved[filename] = path if path in self.files else None
        return self.resolved[filename]

    def _package_frame(self, frame, event, arg):
        if event == "line":
            self.executed.add((self._package_file(frame.f_code.co_filename), frame.f_lineno))
        return self._package_frame

    def _main_frame(self, frame, event, arg):
        if event == "return":  # also when an exception leaves main
            self.depth -= 1
        self._package_frame(frame, event, arg)
        return self._main_frame


def main() -> int:
    tracer = MainLineTracer()
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *SUITE])
    finally:
        sys.settrace(None)
    raises = raise_lines()
    unreached = sorted(key for key in raises if key not in tracer.executed)
    for path, line in unreached:
        print(f"{Path(path).relative_to(PACKAGE.parent)}:{line}: {raises[path, line]}")
    print(f"{len(unreached)} raise statement(s) in {PACKAGE.name} that no cli.main call executes")
    if status != 0:
        print(f"the test suite failed (pytest exit {int(status)})")
    return 1 if unreached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
