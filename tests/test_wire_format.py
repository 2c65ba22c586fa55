"""The printed form of every result type, pinned byte for byte.

`data/wire_suite.out` holds the expected stdout and exit code of each argv in
`data/wire_suite.json` (a `soldens suite` config, run from `data/`). It is
never regenerated to make a change pass: a diff here is a change of the
output format.
"""

import importlib
import inspect
import io
import json
import pkgutil
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import soldens
import soldens.cli as cli
import soldens.densities as dn
import soldens.zline as zl

DATA = Path(__file__).with_name("data")


def render(commands):
    """Each argv as a `$ soldens ...` line, its stdout, then its exit code."""
    lines = []
    for entry in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(entry["argv"])
        lines.append("$ soldens " + shlex.join(entry["argv"]))
        lines.append(buf.getvalue().rstrip("\n"))
        lines.append(f"[exit {code}]")
    return "\n".join(lines) + "\n"


def test_suite_output_is_pinned(monkeypatch):
    monkeypatch.chdir(DATA)
    commands = json.loads(Path("wire_suite.json").read_text())["commands"]
    assert render(commands) == Path("wire_suite.out").read_text()


def _classes():
    for info in pkgutil.iter_modules(soldens.__path__):
        module = importlib.import_module(f"{soldens.__name__}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_cli_is_the_only_encoder():
    classes = list(_classes())
    assert [c.__name__ for c in classes if "to_json" in vars(c)] == []
    # parsers stay only for input that comes from outside the program
    parsers = {c.__name__ for c in classes if "from_json" in vars(c)}
    assert parsers == {"Group", "MatrixGame", "FinSuppPermutation", "ZSet"}


def test_one_scope_vocabulary():
    assert zl.EXACT is dn.EXACT
    assert zl.bounded is dn.bounded
