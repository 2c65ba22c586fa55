import random

import pytest
from helpers import perm_compose, transposition

import soldens.cli as cli
import soldens.perms as pm


def test_perm_basics():
    t = transposition(1, 2)
    assert t(1) == 2 and t(2) == 1 and t(7) == 7
    assert t.support() == (1, 2)
    with pytest.raises(pm.PermError):
        pm.perm({1: 2, 2: 2})


def test_cycles_and_json_roundtrip():
    f = pm.perm({1: 2, 2: 3, 3: 1, 5: 6, 6: 5})
    assert f.cycles() == ((1, 2, 3), (5, 6))
    assert pm.FinSuppPermutation.from_json(cli.dumps(f)) == f


def test_conjugate_moves_support():
    g = transposition(1, 2)
    f = pm.perm({1: 5, 5: 1, 2: 6, 6: 2})
    c = pm.perm_conjugate(f, g)
    assert c == transposition(5, 6)
    assert len(c.support()) == len(g.support())


def test_target_patterns():
    assert 7 in pm.tail(5) and 4 not in pm.tail(5)
    evens = pm.residue_class(0, 2)
    assert 8 in evens and 9 not in evens and -2 not in evens
    gen = evens.enumerate()
    assert [next(gen) for _ in range(3)] == [0, 2, 4]


def test_conjugation_witness_tail():
    res = pm.conjugation_witness([transposition(1, 2)], pm.tail(5))
    f = res["f"]
    assert f(1) == 5 and f(2) == 6
    assert all(x >= 5 for x in res["conjugates"][0].support())


def test_conjugation_witness_identity_when_inside():
    res = pm.conjugation_witness([transposition(7, 9)], pm.tail(5))
    assert res["f"] == pm.IDENTITY


def test_conjugation_witness_residue_class():
    s = [transposition(1, 2), transposition(2, 3)]
    res = pm.conjugation_witness(s, pm.residue_class(0, 2))
    for c in res["conjugates"]:
        assert all(x % 2 == 0 for x in c.support())
    # composition structure survives conjugation
    f = res["f"]
    lhs = pm.perm_conjugate(f, perm_compose(s[0], s[1]))
    rhs = perm_compose(res["conjugates"][0], res["conjugates"][1])
    assert lhs == rhs


def test_randomized_support_size_invariance():
    rng = random.Random(99)
    for _ in range(30):
        pts = rng.sample(range(20), 6)
        g = pm.perm({pts[0]: pts[1], pts[1]: pts[2], pts[2]: pts[0]})
        shuffled = pts[3:]
        f = pm.perm(dict(zip(pts[:3], shuffled)) | dict(zip(shuffled, pts[:3])))
        c = pm.perm_conjugate(f, g)
        assert len(c.support()) == len(g.support())


@pytest.mark.parametrize("args", [("cofinite",), ("residue", 0, 0), ("residue", 0, -2, 1)])
def test_target_pattern_is_checked_once_when_built(args):
    with pytest.raises(pm.PermError) as e:
        pm.TargetPattern(*args)
    assert e.value.kind == "bad-input"


def test_residue_class_modulus_is_checked_before_it_divides():
    with pytest.raises(pm.PermError, match="modulus must be >= 1"):
        pm.residue_class(3, 0)


def test_target_pattern_membership_and_enumeration_agree():
    hand_built = pm.TargetPattern("residue", modulus=3, residue=5)
    assert hand_built == pm.residue_class(2, 3)
    gen = hand_built.enumerate()
    assert [next(gen) for _ in range(3)] == [2, 5, 8]
    assert all(x in hand_built for x in (2, 5, 8)) and 3 not in hand_built
