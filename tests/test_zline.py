import json
import random
from fractions import Fraction

import pytest
from helpers import covers, from_integers, z_equal

import soldens.cli as cli
import soldens.zline as zl
from soldens.errors import SoldensError


def test_membership_and_normal_form():
    a = zl.zset(4, [0, 1], add=[2, 6], remove=[0])
    assert 1 in a and 2 in a and 0 not in a and 3 not in a
    b = zl.zset(4, [0, 1], add=[6, 2], remove=[0, 3])  # the remove of 3 is vacuous
    assert z_equal(a, b)
    assert a.add == frozenset({2, 6}) and a.remove == frozenset({0})


def test_dstar_examples():
    assert zl.dstar(zl.zset(2, [0])) == Fraction(1, 2)
    assert zl.dstar(zl.zset(3, [0, 1])) == Fraction(2, 3)
    assert zl.dstar(from_integers([5, 9])) == 0
    # patches never move the density
    assert zl.dstar(zl.zset(2, [0], add=[1, 3, 5], remove=[0, 2])) == Fraction(1, 2)


def test_folner_density_trace():
    evens = zl.zset(2, [0])
    est, trace = zl.folner_density(lambda x: x in evens, 20)
    assert est == 0.5
    assert all(abs(r - 0.5) <= 1 / n for n, _, r in trace)
    squares = lambda x: int(x ** 0.5) ** 2 == x
    est_sq, _ = zl.folner_density(squares, 400)
    assert est_sq <= (20 + 1) / 400


def test_sumsets_exact():
    s, scope = zl.sumset(zl.zset(2, [0]), zl.zset(2, [0]))
    assert scope == zl.EXACT and z_equal(s, zl.zset(2, [0]))
    s, _ = zl.sumset(zl.zset(3, [0]), zl.zset(3, [1]))
    assert z_equal(s, zl.zset(3, [1]))


def test_sumset_with_remove_patch_downgrades_but_verifies():
    a = zl.zset(4, [0], remove=[4], add=[1])
    b = zl.zset(2, [0])
    s, scope = zl.sumset(a, b)
    assert scope.startswith("BOUNDED(")
    # spot-check the claimed set directly
    for x in range(-20, 20):
        direct = any((x - y) in b for y in range(-60, 60) if y in a)
        assert (x in s) == direct, x


def test_delta_eps_and_ideal():
    a = zl.zset(4, [0, 1])
    d = zl.delta_eps(a, Fraction(1, 2))
    assert z_equal(d, zl.zset(4, [0]))
    assert z_equal(zl.delta_eps(a, 0), zl.Z_ALL)
    assert sorted(zl.delta_ideal(a).residues) == [0, 1, 3]
    assert not zl.delta_ideal(from_integers([3, 5])).residues


def test_classify_with_witnesses():
    full = zl.zset(1, [0], remove=[3, 7])
    verdict = zl.classify(full)
    assert verdict["thick"] and verdict["large"] and not verdict["small"]
    start, end = verdict["thick_witness"]
    assert all(x in full for x in range(start, end))

    evens = zl.classify(zl.zset(2, [0]))
    assert evens["large"] and not evens["thick"]
    assert covers(evens["large_witness"], zl.zset(2, [0]), 30)

    finite = zl.classify(from_integers([1, 2]))
    assert finite["small"] and not finite["large"]


def test_jin_witness_and_bound():
    rep = zl.jin_witness(zl.zset(2, [0]), zl.zset(2, [0]))
    assert rep["f"] == (0, 1) and rep["bound"] == 4
    rep = zl.jin_witness(zl.zset(3, [0]), zl.zset(3, [1]))
    assert rep["f"] == (0, 1, 2)
    with pytest.raises(SoldensError, match="^jin witness needs positive densities$"):
        zl.jin_witness(from_integers([1]), zl.zset(2, [0]))
    for patched in (zl.zset(4, [0], add=[1]), zl.zset(4, [0], remove=[8])):
        with pytest.raises(SoldensError, match=r"\(no add or remove patches\)$") as e:
            zl.jin_witness(patched, zl.zset(2, [0]))
        assert e.value.kind == "bad-input"


def test_lemma163():
    dense = zl.zset(5, [0, 1, 2])
    rep = zl.lemma163_check(dense, dense)
    assert rep["applicable"] and rep["thick_witness"] is not None
    boundary = zl.lemma163_check(zl.zset(2, [0]), zl.zset(2, [0]))
    assert not boundary["applicable"] and boundary["density_sum"] == 1


def test_ergodic_sup_check_values_and_cover_size():
    assert zl.ergodic_sup_check(zl.zset(5, [0]))["f"] == (0, 1, 2, 3, 4)
    assert zl.ergodic_sup_check(from_integers([2]))["value"] == 0
    assert zl.ergodic_sup_check(zl.Z_ALL)["f"] == (0,)
    # sparse residue patterns can need more shifts than 1/density:
    # {0,1,4} mod 9 has density 1/3 but no 3 shifts cover Z/9
    rep = zl.ergodic_sup_check(zl.zset(9, [0, 1, 4]))
    assert len(rep["f"]) == 4 and rep["reciprocal_bound"] == 3


def test_min_cover_at_the_cap_on_a_sparse_base():
    # the base lies in 4Z, so each class mod 4 is a copy of {0, 3, 4} mod 8,
    # which needs 4 shifts: 16 in all, and 0..15 come first
    assert zl.MAX_COVER_MODULUS >= 32
    assert zl._min_cover(32, [0, 12, 16]) == tuple(range(16))


def test_min_cover_at_the_cap_on_the_slowest_sampled_base():
    # the base mod 32 that the README's cover-cap timings name; this is the answer
    # the search gave when it still branched on every shift
    assert zl._min_cover(32, [3, 5, 21, 25]) == (0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 14, 15)


def test_bohr_decomposition():
    rep = zl.piecewise_bohr_check(zl.zset(3, [1], remove=[1]))
    assert rep["ok"]
    assert sorted(rep["u"].residues) == [1] and rep["u"].m == 3
    assert not zl.piecewise_bohr_check(from_integers([4]))["ok"]


def test_primes_table_small():
    rows = zl.primes_bound_table(3, verify_horizon=5000)
    assert [(r["n_k"], r["phi"]) for r in rows] == [(2, 1), (6, 2), (30, 8)]
    assert rows[2]["bound"] == Fraction(19, 30)
    with pytest.raises(SoldensError, match="^k_max 9 exceeds cap 8$"):
        zl.primes_bound_table(9)
    with pytest.raises(SoldensError, match="^horizon too small to cover one full window period$"):
        zl.primes_bound_table(4, verify_horizon=100)


def test_ip_witness_search():
    assert zl.ip_witness_search(zl.zset(2, [0]), 3, 10)["found"] == (2, 4, 6)
    assert zl.ip_witness_search(zl.zset(4, [0]), 2, 20)["found"] == (4, 8)
    odds = zl.ip_witness_search(zl.zset(2, [1]), 2, 100)
    assert odds["found"] is None and odds["exhausted_bound"] == 100


def test_lacunary_folner_estimate_goes_to_zero():
    powers = {2 ** i for i in range(20)}
    est, _ = zl.folner_density(lambda x: x in powers, 2048)
    assert est <= 12 / 2048


def test_sumset_density_monotone_random():
    rng = random.Random(2024)
    for _ in range(20):
        m1, m2 = rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4, 6])
        a = zl.zset(m1, rng.sample(range(m1), rng.randint(1, m1)))
        b = zl.zset(m2, rng.sample(range(m2), rng.randint(1, m2)))
        s, scope = zl.sumset(a, b)
        assert scope == zl.EXACT
        assert zl.dstar(s) >= max(zl.dstar(a), zl.dstar(b))


def test_a_zset_prints_its_modulus_residues_and_patches():
    a = zl.zset(6, [0, 2], add=[3], remove=[6])
    assert json.loads(cli.dumps(a)) == {"m": 6, "residues": [0, 2], "add": [3], "remove": [6]}


@pytest.mark.parametrize("parts", [
    (4, frozenset({5}), frozenset(), frozenset()),   # a residue outside range(4)
    (4, frozenset({-1}), frozenset(), frozenset()),
    (4, frozenset({1.0}), frozenset(), frozenset()),
    (0, frozenset(), frozenset(), frozenset()),      # the modulus is below 1
    (2.0, frozenset({0}), frozenset(), frozenset()),
    (4, frozenset({0}), frozenset({0.5}), frozenset()),  # a patch point is no int
    (4, frozenset({0}), frozenset(), frozenset({"3"})),
])
def test_hand_built_zset_is_checked(parts):
    with pytest.raises(SoldensError, match=r"^(modulus must be an int >= 1, got .+"
                                           r"|residues must lie in range\(4\)|patch points must be ints)$") as e:
        zl.ZSet(*parts)
    assert e.value.kind == "bad-input"


def test_zset_keeps_its_modulus_check_first():
    with pytest.raises(SoldensError, match="^modulus must be >= 1$"):
        zl.zset(0, [5])


def test_ip_search_cap_is_checked_before_any_membership_test():
    def member(x):
        raise AssertionError("membership tested")

    with pytest.raises(SoldensError, match="above cap") as e:
        zl.ip_witness_search(member, 2, 1001)
    assert e.value.kind == "size-guard"
    # k is refused before any membership test, even where the count of tests is small
    with pytest.raises(SoldensError) as e:
        zl.ip_witness_search(member, zl.MAX_IP_GENERATORS + 1, 1)
    assert str(e.value) == "k 21 exceeds cap 20" and e.value.kind == "size-guard"
    # k = 2 and bound 1000 allow 1000 + 2 * C(1000, 2) = 10^6 tests, the cap itself
    assert zl.ip_witness_search(zl.Z_ALL, 2, 1000)["found"] == (1, 2)
    # the CLI default, k = 3 and bound 100, exhausts its space
    assert zl.ip_witness_search(zl.zset(3, [1]), 3, 100)["exhausted_bound"] == 100


def test_cover_window_cap_admits_small_patches():
    a = zl.zset(12, [0, 5], add=[35, -23], remove=[-24, 36])
    assert len(a.add) == len(a.remove) == 2
    assert zl.classify(a)["large"] and zl.ergodic_sup_check(a)["value"] == 1
