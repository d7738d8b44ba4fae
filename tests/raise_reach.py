"""Run the Tier-1 suite and list every statement in src/fuselab that no command-line call in it executes.

Runs what Tier-1 runs (tests/ and bench/, with --continue-on-collection-errors)
in-process under a sys.settrace line tracer that is active only while
fuselab.cli.main runs, and records each package line executed there. A
statement inside a function body whose first line was never executed is one
no input reaches through the command line. A `raise` among them is either a
re-check of a fact the program already checked where it entered, or a check
of outside input that no test feeds through the CLI: the first kind should
be deleted, the second given a test. Any other such statement is a path the
CLI never takes, or one no CLI test covers yet. A statement that only a
library caller runs is listed in REACHED_OUTSIDE_THE_CLI with the reason.

    PYTHONPATH=src python tests/raise_reach.py

Exits 1, listing the unreached statements, if there is any outside that
list, if an entry of the list names no unreached statement, or if the suite
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

# source text of an unreached statement's first line -> why no cli.main call runs it
REACHED_OUTSIDE_THE_CLI = {
    "return late_model(paradigm, *(build_model(single, width, height, channels_a, channels_b, n_classes, seed,":
        "fusion.build_model's late branch: the gradient check (c5) builds every paradigm through build_model, "
        "while the CLI assembles a late model from its trained single-a and single-b models",
}


def statement_lines() -> dict:
    """(file, line) -> the source text of the first line of each statement inside a function body in the package.

    A docstring is left out: it compiles to no code, so no line of it ever runs.
    """
    found = {}
    for path, module in package_modules():
        functions = [node for node in ast.walk(module) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        docstrings = {id(f.body[0]) for f in functions if ast.get_docstring(f, clean=False) is not None}
        for function in functions:
            for node in (n for stmt in function.body for n in ast.walk(stmt)):
                if isinstance(node, ast.stmt) and id(node) not in docstrings:
                    found[str(path), node.lineno] = linecache.getline(str(path), node.lineno).strip()
    return found


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
    statements = statement_lines()
    unreached = sorted(key for key in statements if key not in tracer.executed)
    allowed = [key for key in unreached if statements[key] in REACHED_OUTSIDE_THE_CLI]
    for path, line in allowed:
        print(f"{Path(path).relative_to(PACKAGE.parent)}:{line}: allowed, "
              f"{REACHED_OUTSIDE_THE_CLI[statements[path, line]]}")
    faults = [key for key in unreached if key not in allowed]
    for path, line in faults:
        print(f"{Path(path).relative_to(PACKAGE.parent)}:{line}: {statements[path, line]}")
    print(f"{len(faults)} statement(s) in {PACKAGE.name} that no cli.main call executes, "
          f"{sum(statements[key].startswith('raise') for key in faults)} of them raise")
    stale = REACHED_OUTSIDE_THE_CLI.keys() - {statements[key] for key in allowed}
    for text in sorted(stale):
        print(f"REACHED_OUTSIDE_THE_CLI names no unreached statement: {text}")
    if status != 0:
        print(f"the test suite failed (pytest exit {int(status)})")
    return 1 if faults or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
