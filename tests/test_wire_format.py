"""The printed form of every result type, pinned byte for byte.

`data/wire_suite.out` holds the expected stdout and exit code of each argv in
`data/wire_suite.json` (a `soldens suite` config, run from `data/`). It is
never regenerated to make a change pass: a diff here is a change of the
output format. Every exit-0 line parses as JSON that holds no float.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import shlex
from contextlib import redirect_stdout
from enum import Enum
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import soldens
import soldens.cli as cli
import soldens.densities as dn
import soldens.games as gm
import soldens.groups as gr
import soldens.measures as ms
import soldens.partitions as pt
import soldens.perms as pm
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
    text = render(commands)
    assert text == Path("wire_suite.out").read_text()
    lines = text.splitlines()
    assert len(lines) == 3 * len(commands)  # one stdout line per argv
    for out, code in zip(lines[1::3], lines[2::3]):
        if code == "[exit 0]":
            json.loads(out, parse_float=parse_float, parse_constant=parse_float)


def parse_float(text):
    raise AssertionError(f"a float, {text}, was printed")


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
    assert parsers == {"MatrixGame", "FinSuppPermutation"}
    # and each of them is called from cli.py, where outside input comes in
    called = {node.func.value.attr for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
              if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_json"
              and isinstance(node.func.value, ast.Attribute)}
    assert called == parsers


def test_one_scope_vocabulary():
    assert zl.EXACT is dn.EXACT
    assert zl.bounded is dn.bounded


# The two-pass encoder that dumps replaced, kept unchanged as the reference:
# jsonable copies a payload into plain JSON values, then json.dumps prints the copy.
_WIRE_FORMS = cli._WIRE_FORMS


def jsonable(obj):
    """The JSON value printed for obj: Fraction as "p/q", sets as sorted lists, Enum by
    value, a dataclass by its _WIRE_FORMS entry or else field by field."""
    if isinstance(obj, (str, int, float, bool)) or obj is None:  # before the ABC check below
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        return [jsonable(v) for v in seq]
    if isinstance(obj, Enum):
        return obj.value
    form = _WIRE_FORMS.get(type(obj))
    if form is not None:
        return jsonable(form(obj))
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return repr(obj)


_S3 = gr.build_group("s3")
# one instance of each type a payload prints: the four _WIRE_FORMS types and
# three printed field by field
PRINTED = [
    _S3,
    ms.haar_uniform(_S3),
    pt.verify_thm137(gr.build_group("cyclic:4"), 2),
    pm.perm({1: 2, 2: 3, 3: 1}),
    zl.zset(3, [0, 1], add=[5], remove=[3]),
    gm.solve_game(gm.game([[1, 0], [0, 1]])),
    dn.certificate_from_witness(_S3, gr.subset(_S3, [0, 1]), ms.haar_uniform(_S3),
                                dn.DensityKind.SIGMA_R),
]
LEAVES = (st.integers() | st.fractions() | st.none() | st.booleans() | st.text()
          | st.sampled_from(dn.ALL_KINDS) | st.sampled_from(PRINTED)
          # the members of a frozenset must sort: numbers, or strs
          | st.frozensets(st.integers() | st.fractions() | st.booleans()) | st.frozensets(st.text()))
PAYLOADS = st.recursive(LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4)), max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_dumps_prints_what_the_two_pass_encoder_printed(payload):
    """One json.dumps pass with a hook prints the bytes of the old encoder: jsonable's
    copy of the payload, then json.dumps of that copy."""
    assert cli.dumps(payload) == json.dumps(jsonable(payload), sort_keys=True)
