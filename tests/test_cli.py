import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soldens.cli as cli
import soldens.densities as dn
import soldens.games as gm
import soldens.groups as gr
import soldens.perms as pm
import soldens.zline as zl
from soldens.errors import EXIT_CODES, SoldensError


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_density_exact(capsys):
    code, out = run_capture(capsys, ["density", "exact", "--group", "cyclic:4", "--set", "0,1"])
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_density_brute_matches(capsys):
    code, out = run_capture(
        capsys, ["density", "brute", "--group", "s3", "--set", "0,1", "--kind", "sigma_r"])
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


@pytest.mark.parametrize("group, members", [("s3", "0,1"), ("s3", "1,3,4"), ("cyclic:4", "0"),
                                            ("cyclic:4", "0,1,3"), ("cyclic:2*cyclic:2", "1"),
                                            ("cyclic:2*cyclic:2", "0,1,2")])
def test_game_sigma_prints_the_exact_density(capsys, group, members):
    code, out = run_capture(capsys, ["game", "sigma", "--group", group, "--set", members])
    assert code == 0
    _, exact = run_capture(capsys, ["density", "exact", "--group", group, "--set", members])
    assert json.loads(out) == json.loads(exact)


def test_sigma_r_of_the_empty_set_is_the_trivial_game_with_no_pivot(capsys, monkeypatch):
    def no_kernel(c, a_rows, b):
        raise AssertionError("the empty set reached the LP kernel")

    monkeypatch.setattr(gm, "solve_lp_int", no_kernel)
    code, out = run_capture(capsys, ["game", "sigma-r", "--group", "cyclic:4"])
    trivial = ('{"col_strategy": {"carrier": null, "entries": [[0, "1/1"]]}, '
               '"row_strategy": {"carrier": null, "entries": [[0, "1/1"]]}, "value": "0/1"}')
    assert code == 0
    assert out == f'{{"maximin": {trivial}, "minimax": {trivial}, "value": "0/1"}}\n'


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_size_guard_exits_3(capsys):
    code, out = run_capture(capsys, ["partitions", "verify", "--group", "cyclic:6", "--cells", "5"])
    assert code == 3
    assert json.loads(out)["kind"] == "size-guard"
    for spec in ("cyclic:100", "symmetric:6"):
        code, out = run_capture(capsys, ["group", "--spec", spec])
        assert code == 3 and json.loads(out)["kind"] == "size-guard", spec
    for check in (["--n", "3", "--check-len", "11"], ["--n", "65", "--check-len", "1"]):
        code, out = run_capture(capsys, ["words", "fgroup-cert", *check])
        assert code == 3 and json.loads(out)["kind"] == "size-guard"


def test_fgroup_cert_nonpositive_counts_exit_2(capsys):
    for check in (["--n", "0"], ["--check-len", "0"], ["--n", "-2"], ["--check-len", "x"]):
        code, out = run_capture(capsys, ["words", "fgroup-cert", *check])
        assert code == 2 and out == "", check


def test_primes_csv(capsys):
    code, out = run_capture(capsys, ["zline", "primes", "--kmax", "4", "--horizon", "10000", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n_k,phi,bound_num,bound_den,empirical_max"
    assert lines[4].startswith("4,210,48,10,21,")


def test_zline_dstar_and_classify(capsys):
    code, out = run_capture(capsys, ["zline", "dstar", "--m", "3", "--residues", "0,1"])
    assert code == 0 and json.loads(out)["dstar"] == "2/3"
    code, out = run_capture(capsys, ["zline", "classify", "--m", "2", "--residues", "0"])
    verdict = json.loads(out)
    assert verdict["large"] and not verdict["thick"]


def test_game_extremal(capsys):
    code, out = run_capture(
        capsys, ["game", "extremal", "--pattern", "is12", "--group", "cyclic:4", "--set", "0,1"])
    assert code == 0 and json.loads(out)["exact"] == "1/2"


@pytest.mark.parametrize("pattern", ["is\u0661\u0662", "si\uff12\uff11", "sis\u0967\u0968\u0969"])
def test_game_extremal_refuses_a_substitution_in_other_digits(capsys, pattern):
    # Arabic-Indic, fullwidth and Devanagari digits, each of which int() reads
    code, out = run_capture(
        capsys, ["game", "extremal", "--group", "cyclic:4", "--set", "0", "--pattern", pattern])
    assert code == 2
    assert json.loads(out) == {"error": f"cannot parse pattern {pattern!r}", "kind": "bad-input"}


def test_words_and_perms_commands(capsys):
    code, out = run_capture(capsys, ["words", "fgroup-cert", "--n", "3", "--check-len", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["cert_class_a"]["bound"] == "1/3"

    code, out = run_capture(capsys, [
        "perms", "conjugate-witness",
        "--perm", '{"cycles": [[1, 2]]}', "--target", "tail:5"])
    assert code == 0
    assert json.loads(out)["conjugates"][0]["cycles"] == [[5, 6]]


def test_a_permutation_with_empty_support_is_its_own_conjugate(capsys):
    argv = ["perms", "conjugate-witness", "--perm", '{"cycles": []}', "--target", "tail:3"]
    assert run_capture(capsys, argv) == (0, '{"conjugates": [{"cycles": []}], "f": {"cycles": []}}\n')


def test_verify_all_small(capsys):
    code, out = run_capture(capsys, ["verify-all", "--max-order", "4", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_all_reports_exception_type(monkeypatch):
    def broken(hom, mu):
        raise AssertionError  # what a bare assert in the battery raises

    monkeypatch.setattr(cli.ms, "pushforward", broken)
    checks = {c["name"]: c for c in cli.verify_all(max_order=4, seed=1, trials=1)}
    failed = [name for name, c in checks.items() if not c["ok"]]
    assert failed == ["pushforward-invariance"]
    assert checks["pushforward-invariance"]["detail"] == "AssertionError: "


def test_invariant_failures_exit_through_the_exit_code_table(monkeypatch, capsys):
    hit = {"counterexample": [[0], [1]], "covs": [(2, (0, 1)), (2, (0, 1))]}
    monkeypatch.setattr(cli.pt, "protasov_search", lambda group, n: hit)
    code, out = run_capture(capsys, ["partitions", "protasov", "--group", "cyclic:2", "--cells", "2"])
    assert code == EXIT_CODES["invariant-failure"] == 1
    assert out == ('{"counterexample": {"counterexample": [[0], [1]], '
                   '"covs": [[2, [0, 1]], [2, [0, 1]]]}}\n')

    def broken(hom, mu):
        raise AssertionError

    monkeypatch.setattr(cli.ms, "pushforward", broken)
    code, out = run_capture(capsys, ["verify-all", "--max-order", "2", "--seed", "1"])
    assert code == EXIT_CODES["invariant-failure"]
    report = json.loads(out)
    assert (report["pass"], report["max_order"], report["seed"]) == (False, 2, 1)
    assert [(c["name"], c.get("detail")) for c in report["checks"] if not c["ok"]] == [
        ("pushforward-invariance", "AssertionError: ")]


def test_suite_reruns_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "name": "demo",
        "seed": 0,
        "commands": [
            {"id": "d", "argv": ["density", "exact", "--group", "cyclic:4", "--set", "0,1"]},
            {"id": "g", "argv": ["game", "sigma-r", "--group", "cyclic:3", "--set", "0"]},
        ],
    }))
    code1, out1 = run_capture(capsys, ["suite", str(config)])
    code2, out2 = run_capture(capsys, ["suite", str(config)])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pass"]


def test_suite_propagates_failure(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "name": "bad",
        "commands": [{"argv": ["partitions", "verify", "--group", "cyclic:4", "--cells", "5"]}],
    }))
    code, out = run_capture(capsys, ["suite", str(config)])
    assert code == 3
    assert not json.loads(out)["pass"]


_PERM = '{"cycles": [[1, 2]]}'
_DEEP = "[" * 100_000  # JSON nested deeper than the decoder's recursion limit
_HORIZON_OVER_CAP = str(zl.MAX_VERIFY_HORIZON + 1)

# argv -> (exit code, printed kind); kind None means argparse rejected the argv
# and stdout is empty. "{tmp}" stands for a per-test directory.
EXIT_TABLE = [
    (["game", "extremal", "--pattern", "IS12", "--group", "s3", "--set", "0,1"], 2, "bad-input"),
    (["density", "exact", "--group", "foo", "--set", "0"], 2, "bad-input"),
    (["density", "exact", "--group", "cyclic:4", "--set", "9"], 2, "bad-input"),
    (["group", "--spec", "cyclic:0"], 2, "bad-input"),
    (["group", "--spec", "dihedral:0"], 2, "bad-input"),
    (["group", "--spec", "symmetric:0"], 2, "bad-input"),
    (["group", "--spec", "cyclic:x"], 2, "bad-input"),
    (["density", "exact", "--group", "cyclic:4", "--set", "0,x"], 2, None),
    (["zline", "delta", "--m", "2", "--residues", "0", "--eps", "abc"], 2, None),
    (["zline", "delta", "--m", "2", "--residues", "0", "--eps", "1/0"], 2, None),
    (["zline", "delta", "--m", "4", "--residues", "0,1", "--eps", "1e-5000"], 2, None),
    (["game", "extremal", "--pattern", "xx", "--group", "s3", "--set", "0"], 2, "bad-input"),
    (["game", "extremal", "--pattern", "12", "--group", "s3", "--set", "0"], 2, "bad-input"),
    (["perms", "conjugate-witness", "--perm", _PERM, "--target", "tail:x"], 2, None),
    (["perms", "conjugate-witness", "--perm", _PERM, "--target", "mod:1"], 2, None),
    (["perms", "conjugate-witness", "--perm", _PERM, "--target", "bogus"], 2, None),
    (["perms", "conjugate-witness", "--perm", "{bad", "--target", "tail:3"], 2, "bad-input"),
    (["perms", "conjugate-witness", "--perm", "[1]", "--target", "tail:3"], 2, "bad-input"),
    (["perms", "conjugate-witness", "--perm", '{"cycles": [[1, 2, 3], [3, 2, 1]]}', "--target", "tail:5"],
     2, "bad-input"),
    (["perms", "conjugate-witness", "--perm", _DEEP, "--target", "tail:3"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/missing.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/not_json.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/no_payoff.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/exponent.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/deep.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/no_rows.json"], 2, "bad-input"),
    (["game", "solve", "--file", "{tmp}/empty_row.json"], 2, "bad-input"),
    (["suite", "{tmp}/missing.json"], 2, "bad-input"),
    (["suite", "{tmp}/deep.json"], 2, "bad-input"),
    (["game", "sigma-r"], 2, "bad-input"),
    (["game", "sigma"], 2, "bad-input"),
    (["game", "extremal"], 2, "bad-input"),
    (["measure", "dirac", "--group", "cyclic:4"], 2, "bad-input"),
    (["measure", "dirac", "--group", "cyclic:4", "--set", "7"], 2, "bad-input"),
    (["measure", "dirac", "--group", "cyclic:4", "--set", "1,2"], 2, "bad-input"),
    (["partitions", "verify", "--group", "cyclic:4", "--cells", "0"], 2, None),
    (["partitions", "protasov", "--group", "cyclic:4", "--cells", "-1"], 2, None),
    (["zline", "primes", "--kmax", "0"], 2, "bad-input"),
    (["zline", "primes", "--kmax", "4", "--horizon", "100"], 2, "bad-input"),
    (["zline", "ip", "--m", "2", "--residues", "0", "--k", "0"], 2, "bad-input"),
    (["zline", "jin", "--m", "4", "--residues", "0", "--remove", "8", "--bm", "2", "--bresidues", "0"],
     2, "bad-input"),
    (["zline", "jin", "--m", "4", "--residues", "0", "--add", "1", "--bm", "2", "--bresidues", "0"],
     2, "bad-input"),
    (["verify-all", "--max-order", "0"], 2, "bad-input"),
    (["verify-all", "--max-order", "1"], 2, "bad-input"),
    (["zline", "primes", "--kmax", "9"], 3, "size-guard"),
    (["zline", "primes", "--kmax", "1", "--horizon", _HORIZON_OVER_CAP], 3, "size-guard"),
    (["zline", "ip", "--m", "2", "--residues", "0", "--k", "21"], 3, "size-guard"),
    (["game", "extremal", "--pattern", "isis1234", "--group", "s3", "--set", "0"], 3, "size-guard"),
    (["zline", "ergodic", "--m", "40", "--residues", "0,1"], 3, "size-guard"),
    (["zline", "jin", "--m", "7", "--residues", "0", "--bm", "5", "--bresidues", "0"], 3, "size-guard"),
    (["density", "brute", "--group", "cyclic:17", "--set", "0"], 3, "size-guard"),
    (["zline", "classify", "--m", "1001", "--residues", "0"], 3, "size-guard"),
    (["partitions", "cov", "--group", "cyclic:60", "--set", "0,1,3"], 3, "size-guard"),
    (["game", "solve", "--file", "{tmp}/wide.json"], 3, "size-guard"),
    (["measure", "dirac", "--group", "cyclic:4", "--set", "3"], 0, None),
]


@pytest.mark.parametrize("argv, code, kind", EXIT_TABLE, ids=[
    " ".join("<deep>" if a == _DEEP else a for a in argv) for argv, _, _ in EXIT_TABLE])
def test_exit_code_table(tmp_path, capsys, argv, code, kind):
    (tmp_path / "not_json.json").write_text("{payoff")
    (tmp_path / "no_payoff.json").write_text('{"rows": [[1]]}')
    (tmp_path / "exponent.json").write_text('{"payoff": [["1e-5000", 0]]}')
    (tmp_path / "wide.json").write_text('{"payoff": [[%s]]}' % ", ".join(["0"] * 65))
    (tmp_path / "deep.json").write_text(_DEEP)
    (tmp_path / "no_rows.json").write_text('{"payoff": []}')
    (tmp_path / "empty_row.json").write_text('{"payoff": [[]]}')
    got, out = run_capture(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert got == code
    if code == 0:
        return
    if kind is None:
        assert out == ""
    else:
        assert json.loads(out)["kind"] == kind
        assert EXIT_CODES[kind] == code


def test_suite_that_runs_suite_is_rejected_before_any_command(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"commands": [
        {"argv": ["density", "exact", "--group", "cyclic:4", "--set", "0,1"]},
        {"argv": ["suite", str(config)]},
    ]}))
    code, out = run_capture(capsys, ["suite", str(config)])
    assert code == 2
    assert out.count("\n") == 1  # the error line only; the density entry never ran
    assert set(json.loads(out)) == {"error", "kind"} and json.loads(out)["kind"] == "bad-input"


def test_a_suite_entry_with_json_too_deep_fails_only_itself(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"commands": [
        {"argv": ["game", "solve", "--file", str(deep)]},
        {"argv": ["density", "exact", "--group", "cyclic:4", "--set", "0"]},
    ]}))
    code, out = run_capture(capsys, ["suite", str(config)])
    results = json.loads(out)["results"]
    assert code == 2
    assert [r["code"] for r in results] == [2, 0]
    assert json.loads(results[0]["output"])["kind"] == "bad-input"
    assert json.loads(results[1]["output"]) == {"value": "1/4"}


# a suite config, the third reader of outside JSON, -> the start of its refusal
SUITE_CONFIGS = [
    ("{bad", "malformed suite config: JSONDecodeError("),
    ("[1]", "malformed suite config: AttributeError("),
    ("null", "malformed suite config: AttributeError("),
    ('"x"', "malformed suite config: AttributeError("),
    ('{"commands": 5}', "malformed suite config: TypeError("),
    ('{"commands": [5]}', "malformed suite config: AttributeError("),
    ('{"commands": [{}]}', "malformed suite config: KeyError('argv')"),
    ('{"commands": {"a": 1}}', "malformed suite config: AttributeError("),
    ('{"commands": [{"argv": "density"}]}', "suite argv must be lists of strings"),
    ('{"commands": [{"argv": [1]}]}', "suite argv must be lists of strings"),
    (_DEEP, "malformed suite config: RecursionError("),
]


@pytest.mark.parametrize("text, start", SUITE_CONFIGS,
                         ids=["<deep>" if t == _DEEP else t for t, _ in SUITE_CONFIGS])
def test_a_malformed_suite_config_is_refused_as_bad_input(tmp_path, capsys, text, start):
    config = tmp_path / "suite.json"
    config.write_text(text)
    code, out = run_capture(capsys, ["suite", str(config)])
    assert code == 2 and out.count("\n") == 1
    line = json.loads(out)
    assert line["kind"] == "bad-input" and line["error"].startswith(start)


def test_a_suite_entry_refused_by_argparse_fails_only_itself(tmp_path, capsys):
    good = ["density", "exact", "--group", "cyclic:4", "--set", "0"]
    refused = [
        ["frobnicate", "--set", "0"],  # unknown subcommand
        ["density", "exact", "--group", "cyclic:4", "--set", "0", "--bogus", "1"],  # unknown flag
        ["group", "--validate"],  # missing required flag
    ]
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"name": "refusals", "seed": 3, "commands": [
        {"id": i, "argv": argv} for i, argv in enumerate([good, *refused, good])]}))
    assert cli.run(["suite", str(config)]) == 2
    out, err = capsys.readouterr()
    entry = {"code": 0, "output": '{"value": "1/4"}'}
    assert out == cli.dumps({"suite": "refusals", "seed": 3, "pass": False, "results": [
        {"id": 0, "argv": good, **entry},
        *({"id": i, "argv": argv, "code": 2, "output": ""} for i, argv in enumerate(refused, 1)),
        {"id": 4, "argv": good, **entry},
    ]}) + "\n"
    assert "invalid choice: 'frobnicate'" in err and "unrecognized arguments: --bogus 1" in err
    assert "the following arguments are required: --spec" in err


# One argv per argparse path: unknown command and no argv, help on the top level
# and on a subcommand, an unknown trailing argument, a missing required flag, a
# bad type= value, a bad choice, a prefix abbreviation, -- separators and
# --flag=value.
PARSE_PATHS = [
    ["frobnicate"], [],
    ["-h"], ["density", "-h"],
    ["density", "exact", "--group", "s3", "--set", "0", "--bogus"],
    ["density", "exact", "--set", "0"],
    ["zline", "dstar", "--m", "x"],
    ["density", "inexact", "--group", "s3", "--set", "0"],
    ["density", "exact", "--gro", "s3", "--set", "0"],
    ["density", "--group", "s3", "--set", "0", "--", "exact"],
    ["zline", "dstar", "--m", "3", "--", "x"],
    ["--", "density", "exact", "--group", "s3", "--set", "0"],
    ["zline", "dstar", "--m", "3", "--add=7,9"],
]


def _top_level_run(argv):
    """What cli.run prints and returns when the top-level parser parses argv and
    hands a named subcommand's arguments to its subparser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    code, payload = args.fn(args)
    cli.emit(payload)
    return code


def test_one_parse_prints_what_the_top_level_parse_prints(monkeypatch, capsys):
    """Exit code, stdout and stderr of every argparse path match the top-level
    parse, whose usage lines argparse formats anew, while COLUMNS changes between
    requests in one process."""
    refusal = {}  # COLUMNS -> stderr of the unknown command
    for columns in ("60", "200", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in PARSE_PATHS:
            got = (cli.run(argv), *capsys.readouterr())
            with monkeypatch.context() as m:
                m.setattr(type(cli.build_parser()), "format_usage", argparse.ArgumentParser.format_usage)
                want = (_top_level_run(argv), *capsys.readouterr())
            assert got == want, (columns, argv)
            if argv == ["frobnicate"]:
                refusal[columns] = got[2]
    assert refusal["60"] != refusal["200"]


def test_a_named_subcommand_is_parsed_by_its_own_parser_alone(monkeypatch, capsys):
    parser = cli.build_parser()
    real = parser.parse_known_args

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a named subcommand")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert run_capture(capsys, ["density", "exact", "--group", "cyclic:4", "--set", "0,1"]) == (
        0, '{"value": "1/2"}\n')
    assert cli.run(["density", "exact", "--group", "s3", "--set", "0", "--bogus"]) == 2
    assert capsys.readouterr().err.endswith("soldens: error: unrecognized arguments: --bogus\n")
    calls = []

    def record(args=None, namespace=None):
        calls.append(args)
        return real(args, namespace)

    monkeypatch.setattr(parser, "parse_known_args", record)
    assert cli.run(["frobnicate"]) == 2 and cli.run([]) == 2
    assert calls == [["frobnicate"], []]


_TARGET = ["perms", "conjugate-witness", "--perm", _PERM, "--target"]
_DELTA = ["zline", "delta", "--m", "2", "--residues", "0", "--eps"]
_WORDS = ["words", "fgroup-cert", "--check-len", "4", "--n"]

# argv -> the last line argparse writes to stderr when it refuses a value, or
# None where the value is accepted
ARGV_VALUES = [
    pytest.param(["density", "exact", "--group", "cyclic:4", "--set", "0,x"],
                 "soldens density: error: argument --set: '0,x' is not a list of integers", id="'0,x'"),
    pytest.param([*_DELTA, "1/0"], "soldens zline: error: argument --eps: '1/0' is not a fraction",
                 id="'1/0'"),
    pytest.param([*_DELTA, "1e3"], "soldens zline: error: argument --eps: '1e3' is not a fraction",
                 id="'1e3'"),
    pytest.param([*_DELTA, "true"], "soldens zline: error: argument --eps: 'true' is not a fraction",
                 id="'true'"),
    pytest.param([*_TARGET, "mod:1/0"],
                 "soldens perms: error: argument --target: 'mod:1/0' is not tail:N or mod:R/M",
                 id="'mod:1/0'"),
    pytest.param([*_TARGET, "mod:1/2/3"],
                 "soldens perms: error: argument --target: 'mod:1/2/3' is not tail:N or mod:R/M",
                 id="'mod:1/2/3'"),
    pytest.param([*_TARGET, "mod:1"],
                 "soldens perms: error: argument --target: 'mod:1' is not tail:N or mod:R/M", id="'mod:1'"),
    pytest.param([*_TARGET, "tail:"],
                 "soldens perms: error: argument --target: 'tail:' is not tail:N or mod:R/M", id="'tail:'"),
    pytest.param([*_TARGET, "foo:3"],
                 "soldens perms: error: argument --target: 'foo:3' is not tail:N or mod:R/M", id="'foo:3'"),
    pytest.param([*_TARGET, ""], "soldens perms: error: argument --target: '' is not tail:N or mod:R/M",
                 id="''"),
    pytest.param([*_WORDS, "0"], "soldens words: error: argument --n: '0' is not a positive integer",
                 id="'0' --n"),
    pytest.param([*_WORDS, "-3"], "soldens words: error: argument --n: '-3' is not a positive integer",
                 id="'-3'"),
    pytest.param([*_WORDS, "2.0"], "soldens words: error: argument --n: '2.0' is not a positive integer",
                 id="'2.0'"),
    pytest.param(["partitions", "verify", "--group", "cyclic:4", "--cells", "0"],
                 "soldens partitions: error: argument --cells: '0' is not a positive integer",
                 id="'0' --cells"),
    pytest.param(["zline", "dstar", "--m", "x"], "soldens zline: error: argument --m: 'x' is not an integer",
                 id="'x'"),
    pytest.param(["zline", "dstar", "--bm", "1.5"],
                 "soldens zline: error: argument --bm: '1.5' is not an integer", id="'1.5'"),
    pytest.param(["zline", "jin", "--kmax", "six"],
                 "soldens zline: error: argument --kmax: 'six' is not an integer", id="'six'"),
    pytest.param(["zline", "primes", "--horizon", "1e6"],
                 "soldens zline: error: argument --horizon: '1e6' is not an integer", id="'1e6'"),
    pytest.param(["zline", "ip", "--k", "3k"], "soldens zline: error: argument --k: '3k' is not an integer",
                 id="'3k'"),
    pytest.param(["zline", "ip", "--bound", "0x10"],
                 "soldens zline: error: argument --bound: '0x10' is not an integer", id="'0x10'"),
    pytest.param(["verify-all", "--max-order", "8.0"],
                 "soldens verify-all: error: argument --max-order: '8.0' is not an integer", id="'8.0'"),
    pytest.param(["verify-all", "--seed", "one"],
                 "soldens verify-all: error: argument --seed: 'one' is not an integer", id="'one'"),
    pytest.param([*_TARGET, "tail:-3"], None, id="'tail:-3'"),
    pytest.param([*_TARGET, "mod:-1/3"], None, id="'mod:-1/3'"),
    pytest.param([*_WORDS, " 3 "], None, id="' 3 '"),
    pytest.param(["zline", "dstar", "--residues", "0", "--m", "1_0"], None, id="'1_0'"),
]


def test_argv_value_rows_have_distinct_ids():
    ids = [row.id for row in ARGV_VALUES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("argv, line", ARGV_VALUES)
def test_each_argv_value_refusal_prints_its_line(capsys, argv, line):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    if line is None:
        assert (code, err, out.count("\n")) == (0, "", 1)
    else:
        assert (code, out, err.splitlines()[-1]) == (2, "", line)


def test_cover_modulus_cap_is_checked_before_the_search(monkeypatch):
    def least_cover(*args):
        raise AssertionError("cover search started")

    monkeypatch.setattr(zl.pt, "least_cover", least_cover)
    cap = zl.MAX_COVER_MODULUS
    assert 35 > cap  # lcm(7, 5), the jin sumset's modulus
    for a, b in ((zl.zset(cap + 1, [0, 1]), None), (zl.zset(7, [0]), zl.zset(5, [0]))):
        with pytest.raises(SoldensError, match=f"exceeds cap {cap}$") as info:
            zl.ergodic_sup_check(a) if b is None else zl.jin_witness(a, b)
        assert info.value.kind == "size-guard"


def test_cover_modulus_cap_admits_its_bound(capsys):
    code, out = run_capture(capsys, ["zline", "ergodic", "--m", str(zl.MAX_COVER_MODULUS),
                                     "--residues", "0,1"])
    assert code == 0 and len(json.loads(out)["f"]) == zl.MAX_COVER_MODULUS // 2


def test_jin_cover_cap_is_checked_before_the_sumset(monkeypatch):
    def sumset(*args, **kwargs):
        raise AssertionError("sumset built")

    monkeypatch.setattr(zl, "sumset", sumset)
    with pytest.raises(SoldensError,
                       match=f"cover modulus 1003002 exceeds cap {zl.MAX_COVER_MODULUS}$") as info:
        zl.jin_witness(zl.zset(1001, [0]), zl.zset(1002, [0]))
    assert info.value.kind == "size-guard"


def test_jin_refuses_a_cover_that_misses_a_class(monkeypatch, capsys):
    real = zl._min_cover
    monkeypatch.setattr(zl, "_min_cover", lambda m, base: real(m, base)[:-1])
    code, out = run_capture(capsys, ["zline", "jin", "--m", "6", "--residues", "0",
                                     "--bm", "4", "--bresidues", "0"])
    assert code == EXIT_CODES["invariant-failure"] == 1
    assert json.loads(out) == {"error": "jin witness failed thickness", "kind": "invariant-failure"}


def test_new_size_caps_admit_their_bounds():
    # the large witness of residues {0} mod 250 with three removals has 1000 shifts
    assert zl.classify(zl.zset(250, [0], remove=[1, 2, 3]))["large"]
    g = gr.build_group("cyclic:16")  # 2**16 - 1 candidate witnesses
    assert dn.density_bruteforce(g, gr.subset(g, range(16))) == (1, (0,))


def test_horizon_cap_is_checked_before_the_sieve(monkeypatch):
    def sieve(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    monkeypatch.setattr(zl, "_sieve", sieve)
    with pytest.raises(SoldensError, match="exceeds cap") as info:
        zl.primes_bound_table(1, verify_horizon=zl.MAX_VERIFY_HORIZON + 1)
    assert info.value.kind == "size-guard"


# one JSON object that is malformed for each of the two parsers
_MIXED = ('{"order": 2, "table": ["a"], "payoff": [[1, 2], [3]], "cycles": [["a", 1]],'
          ' "m": "x", "residues": 5}')


@pytest.mark.parametrize("parse", [gm.MatrixGame.from_json, pm.FinSuppPermutation.from_json])
@pytest.mark.parametrize("text", ["{bad", "[1]", "null", "{}", _MIXED, '{"payoff": ["12", "03"]}',
                                  '{"payoff": {"1": 0}}', '{"payoff": [{"1": 0}]}',
                                  '{"cycles": [[1, 2, 3], [3, 2, 1]]}', '{"cycles": [[1, 1]]}',
                                  pytest.param(_DEEP, id="deep")])
def test_from_json_rejects_malformed_input_as_bad_input(parse, text):
    with pytest.raises(SoldensError) as info:
        parse(text)
    assert info.value.kind == "bad-input"


def test_a_result_too_long_to_print_is_a_size_guard(tmp_path, capsys):
    # the value 10^-4300 parses, but its denominator has more digits than the
    # interpreter converts to a string: the dumps hook raises while it formats the Fraction
    game = tmp_path / "tiny.json"
    game.write_text('{"payoff": [["0.%s1"]]}' % ("0" * 4299))
    code, out = run_capture(capsys, ["game", "solve", "--file", str(game)])
    assert code == 3
    assert out.count("\n") == 1 and json.loads(out)["kind"] == "size-guard"
    assert json.loads(out)["error"].startswith("result too large to print: ")


def test_one_process_prints_what_fresh_processes_print(tmp_path, capsys):
    """The parser is built once per process and shared by every request: a
    mixed sequence of requests in one process gives, for each argv, the exit
    code and stdout of a fresh `python -m soldens.cli` process."""
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"name": "reuse", "commands": [
        {"id": "two", "argv": ["perms", "conjugate-witness", "--perm", _PERM,
                               "--perm", '{"cycles": [[3, 4]]}', "--target", "tail:5"]},
        {"id": "one", "argv": ["perms", "conjugate-witness", "--perm", _PERM, "--target", "tail:5"]},
        {"id": "bad", "argv": ["density", "exact", "--group", "cyclic:4", "--set", "9"]},
    ]}))
    argvs = [
        ["density", "exact", "--group", "cyclic:4", "--set", "0,1"],  # good
        ["density", "exact", "--group", "cyclic:4", "--set", "0,x"],  # argparse reject
        ["density", "exact", "--group", "cyclic:4", "--set", "9"],  # bad input
        ["zline", "dstar", "--m", "3"],  # default --residues
        ["game", "extremal", "--group", "cyclic:4", "--set", "0,1"],  # default --pattern
        # two --perm, then one: an append default shared across parses would keep three
        ["perms", "conjugate-witness", "--perm", _PERM, "--perm", '{"cycles": [[3, 4]]}',
         "--target", "tail:5"],
        ["perms", "conjugate-witness", "--perm", _PERM, "--target", "tail:5"],
        ["zline", "primes", "--kmax", "2", "--horizon", "1000", "--csv"],
        ["suite", str(config)],
        ["zline", "dstar", "--m", "3"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in argvs:
        in_process = run_capture(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "soldens.cli", *argv], capture_output=True, env=env)
        assert in_process == (fresh.returncode, fresh.stdout.decode()), argv


@pytest.mark.parametrize("argv", [
    ["zline", "ip", "--m", "3", "--residues", "1", "--k", "2", "--bound", "100000"],
    # 501 removed points: a witness of 2 * 502 = 1004 shifts
    pytest.param(["zline", "ergodic", "--m", "2", "--residues", "0", "--remove",
                  ",".join(map(str, range(0, 1001, 2)))],
                 id="zline ergodic --m 2 --residues 0 --remove 0,2,...,1000"),
], ids=" ".join)
def test_ip_and_cover_window_caps_refuse_before_the_work(monkeypatch, capsys, argv):
    def work(*args):
        raise AssertionError("cover check or cover search started")

    monkeypatch.setattr(zl, "_covers_z", work)
    monkeypatch.setattr(zl.pt, "least_cover", work)
    code, out = run_capture(capsys, argv)
    assert code == 3 and json.loads(out)["kind"] == "size-guard"


@pytest.mark.parametrize("command, want", [
    ("classify", '{"large": true, "large_witness": [0, 1], "small": false, "thick": false, '
                 '"thick_witness": null}\n'),
    ("ergodic", '{"f": [0, 1], "reciprocal_bound": 2, "value": 1}\n'),
], ids=["classify", "ergodic"])
def test_a_far_patch_point_gets_its_cover_verdict(capsys, command, want):
    # the cover check is exact on all of Z, so its cost does not grow with the patch span
    argv = ["zline", command, "--m", "2", "--residues", "0", "--add", "1000000000001"]
    assert run_capture(capsys, argv) == (0, want)


def test_delta_costs_the_residue_pairs_not_the_modulus(capsys):
    code, out = run_capture(capsys, ["zline", "delta", "--m", "1000000000", "--residues", "0,1"])
    assert code == 0
    assert out == ('{"delta": {"add": [], "m": 1000000000, "remove": [], "residues": [0]}, '
                   '"eps": "1/500000000"}\n')


def test_partitions_pack_prints_the_packing(capsys):
    code, out = run_capture(capsys, ["partitions", "pack", "--group", "cyclic:6", "--set", "0,1"])
    assert code == 0 and out == '{"e": [0, 2, 4], "pack": 3}\n'
