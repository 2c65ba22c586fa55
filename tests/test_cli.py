import json

import soldens.cli as cli


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


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_size_guard_exits_3(capsys):
    code, out = run_capture(capsys, ["partitions", "verify", "--group", "cyclic:6", "--cells", "5"])
    assert code == 3
    assert json.loads(out)["kind"] == "size-guard"
    code, _ = run_capture(capsys, ["group", "--spec", "cyclic:100"])
    assert code == 3
    for check in (["--n", "3", "--check-len", "11"], ["--n", "65", "--check-len", "1"]):
        code, out = run_capture(capsys, ["words", "fgroup-cert", *check])
        assert code == 3 and json.loads(out)["kind"] == "size-guard"


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
