"""The exit-code contract on random argv.

Each argv is built from ``build_parser()``'s own subcommands, flags and
choices; each flag takes its value from a small pool of edge values (-1, 0,
1, 2, its cap and cap + 1, "x", the empty string, small group specs). Whatever
the argv, ``cli.run`` returns one code in {0, 1, 2, 3} and never raises; on
exit 0 stdout holds no float, and on a nonzero exit stdout is empty (argparse rejected the argv) or one JSON line
whose kind maps to that code.

verify-all is left out (it takes seconds whatever its flags). The pools keep
the run small: --bound is at most 30, --check-len at most 4 unless it is
cap + 1, and --horizon never sits at its cap (a sieve of 10**7 integers).
Both --bound and --check-len are always given, since their defaults are slow.

The two JSON parsers get random JSON documents, built from the parsers' own
field names and sometimes nested in lists deeper than the decoder's recursion
limit: each returns a value or raises a SoldensError of kind bad-input or
size-guard, never another exception.
"""

import argparse
import contextlib
import csv
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soldens.cli as cli
import soldens.games as gm
import soldens.groups as gr
import soldens.perms as pm
import soldens.words as wd
import soldens.zline as zl
from soldens.errors import BAD_INPUT, EXIT_CODES, SIZE_GUARD, SoldensError

PARSER = cli.build_parser()
SUBCOMMANDS = {
    name: sub
    for action in PARSER._actions if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items() if name != "verify-all"
}
ALWAYS = {"--bound", "--check-len"}

INTS = ["-1", "0", "1", "2", "x", ""]


def capped(cap):
    return INTS + [str(cap), str(cap + 1)]


GROUPS = ["cyclic:1", "cyclic:3", "s3", "cyclic:2*cyclic:2", "cyclic:0", "foo", "x", "",
          f"cyclic:{gr.DEFAULT_ORDER_CAP + 1}"]
SETS = INTS + ["0,1", "0,x", "9"]
FILES = ["{dir}/game.json", "{dir}/not_json.json", "{dir}/missing.json", "{dir}",
         "{dir}/suite.json", "{dir}/bad_suite.json", "-", ""]
POOLS = {
    "--spec": GROUPS, "--group": GROUPS,
    "--set": SETS, "--residues": SETS, "--add": SETS, "--remove": SETS, "--bresidues": SETS,
    "--m": INTS, "--bm": INTS, "--eps": INTS + ["1/2", "1/0"],
    "--cells": capped(4), "--kmax": capped(8), "--k": capped(20), "--n": capped(wd.MAX_WORD_LEN),
    "--horizon": INTS + ["1000", str(zl.MAX_VERIFY_HORIZON + 1)],
    "--bound": INTS + ["30"],
    "--check-len": INTS + ["4", str(wd.MAX_CHECK_LEN + 1)],
    "--pattern": ["is12", "IS12", "sis123", "isis1234", "xx", ""],
    "--perm": ['{"cycles": [[1, 2]]}', '{"cycles": [[-1, 2]]}', "{bad", "[1]", ""],
    "--target": ["tail:3", "mod:1/2", "mod:0/0", "tail:x", "mod:1", "bogus", ""],
    "--file": FILES, "config": FILES,
}


def _key(action):
    return action.option_strings[0] if action.option_strings else action.dest


def _pool(action):
    if action.choices is not None:
        return [*action.choices, "bogus"]
    return POOLS[_key(action)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "game.json").write_text('{"payoff": [["1", "0"], ["0", "1"]]}')
    (d / "not_json.json").write_text("{payoff")
    (d / "suite.json").write_text(json.dumps({"commands": [{"argv": ["group", "--spec", "s3"]}]}))
    (d / "bad_suite.json").write_text(json.dumps({"commands": [{"argv": [1]}]}))
    return d


def _argv(data):
    """A random argv; half of them draw no "x" or "bogus", so that more get past argparse."""
    name = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    parsable = data.draw(st.booleans())

    def value(action):
        pool = _pool(action)
        return data.draw(st.sampled_from([v for v in pool if v not in ("x", "bogus")] if parsable else pool))

    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        if not action.option_strings:
            argv.append(value(action))
        elif action.nargs == 0:  # --help, --validate, --csv
            if action.dest != "help" and data.draw(st.booleans()):
                argv.append(action.option_strings[0])
        elif _key(action) in ALWAYS or data.draw(st.integers(0, 5 if action.required else 1)):
            repeats = data.draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
            for _ in range(repeats):
                argv.append(f"{action.option_strings[0]}={value(action)}")
    return argv


def parse_float(text):
    raise AssertionError(f"a float, {text}, was printed")


def _assert_exact(argv, stdout):
    """An exit-0 stdout holds no float: it is one JSON document, or the int
    cells of zline primes --csv under their header."""
    if "primes" in argv and "--csv" in argv:
        for row in list(csv.reader(io.StringIO(stdout)))[1:]:
            for cell in row:
                int(cell)
    else:
        json.loads(stdout, parse_float=parse_float, parse_constant=parse_float)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_random_argv_end_in_one_exit_code(files, data):
    argv = [a.replace("{dir}", str(files)) for a in _argv(data)]
    out, old_stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO('{"payoff": [["1"]]}')
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        sys.stdin = old_stdin
    assert code in (0, 1, 2, 3), argv
    if not code:
        _assert_exact(argv, out.getvalue())
    else:
        lines = out.getvalue().splitlines()
        assert len(lines) <= 1, argv
        if lines:
            assert EXIT_CODES[json.loads(lines[0])["kind"]] == code, argv


FIELDS = ["payoff", "cycles", "x"]
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(FIELDS), inner),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(doc=DOCUMENTS, depth=st.sampled_from([0, 0, 1, 100_000]))
def test_json_parsers_return_or_refuse(doc, depth):
    text = "[" * depth + json.dumps(doc) + "]" * depth
    for parse in (gm.MatrixGame.from_json, pm.FinSuppPermutation.from_json):
        try:
            parse(text)
        except SoldensError as e:
            assert e.kind in (BAD_INPUT, SIZE_GUARD), (parse, e)
