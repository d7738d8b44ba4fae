"""Every function in src/fuselab is one the CLI runs, and every error type one a handler tells apart.

One small session of every command runs under sys.setprofile, which records
the code object (file, first line) of each call entered in the package. Each
function the package's sources define, methods and nested functions included,
must be among them; a function only the tests call belongs in tests/.
"""

import ast
import os
import sys
from pathlib import Path

import fuselab
from fuselab.cli import main

PACKAGE = Path(fuselab.__file__).resolve().parent


def package_modules() -> list:
    """(path, parsed module) of each source file in the package."""
    return [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def defined_functions() -> dict:
    """(file, first line) -> qualified name of every function defined in the package.

    The first line is the code object's co_firstlineno: a decorated function's
    first decorator line.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(str(path), line)] = f"{path.stem}.{name[:-1]}"
            visit(child, path, name)

    for path, module in package_modules():
        visit(module, path, "")
    return found


def run_session(tmp: Path) -> None:
    """Every command once, on a 16x16 dataset, plus one malformed command line."""
    ds, config = tmp / "ds", tmp / "quiet.toml"
    config.write_text("quiet = true\n")
    train = ["--data", ds, "--epochs", "1"]
    for argv, code in [
        (["dataset", "synth", "--out", ds, "--per-class", "20", "--size", "16", "--b", "3", "--config", config], 0),
        (["dataset", "split", "--data", ds, "--fractions", "0.7,0.2,0.1", "--seed", "1", "--quiet"], 0),
        (["train", *train, "--paradigm", "late-weighted", "--optimizer", "sgd", "--out", tmp / "lw", "--quiet"], 0),
        (["train", *train, "--paradigm", "joint", "--out", tmp / "joint", "--quiet"], 0),
        (["eval", "--data", ds, "--model", tmp / "joint", "--split", "val", "--out", tmp / "ev", "--quiet"], 0),
        (["eval", "--data", ds, "--model", tmp / "lw", "--split", "val", "--out", tmp / "ev-lw", "--quiet"], 0),
        (["compare", *train, "--out", tmp / "cmp", "--quiet"], 0),
        (["compare", "--from-tables", tmp / "cmp" / "report.csv", "--out", tmp / "tables", "--quiet"], 0),
        (["weights", "derive", "--cm-a", tmp / "cmp" / "single-a" / "confusion.csv",
          "--cm-b", tmp / "cmp" / "single-b" / "confusion.csv"], 0),
        (["train", "--data", ds], 2),  # no --paradigm: _Parser.error
    ]:
        assert main([str(a) for a in argv]) == code, argv


def test_cli_session_enters_every_function_in_src(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no ./fuselab.toml but the session's own
    for key in [k for k in os.environ if k.startswith("FUSELAB_")]:
        monkeypatch.delenv(key)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_session(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    never = sorted(name for key, name in defined_functions().items() if key not in entered)
    assert not never, f"functions no CLI command runs: {never}"


def test_every_error_type_is_named_by_an_except_clause():
    """A class in errors.py that no except clause in the package names is handled only as
    its base, so it tells nothing its message does not; raise the base instead."""
    defined = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    caught = set()
    for _, module in package_modules():
        for node in ast.walk(module):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {getattr(t, "id", getattr(t, "attr", None)) for t in types}  # Name or module.Name
    assert not defined - caught, f"error types no except clause names: {sorted(defined - caught)}"
