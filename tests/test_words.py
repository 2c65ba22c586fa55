import random
from fractions import Fraction

import pytest
from helpers import fgroup_col_count, word_invert

import soldens.words as wd


def test_free_reduction():
    assert wd.word("abBA").letters == ""
    assert wd.word_multiply(wd.word("ab"), wd.word("Ba")).letters == "aa"
    assert wd.word_multiply(wd.word("bbb"), wd.word("BBa")).letters == "ba"
    u = wd.word("abAB")
    assert wd.word_multiply(u, word_invert(u)) == wd.EMPTY


def test_reduced_word_validation():
    with pytest.raises(wd.WordError):
        wd.ReducedWord("aA")
    with pytest.raises(wd.WordError):
        wd.ReducedWord("xy")
    with pytest.raises(wd.WordError):
        wd.word("a" * 100)
    with pytest.raises(wd.WordError, match="bad letter 'x'"):
        wd.word("xa")
    with pytest.raises(wd.WordError, match="bad letter 'x'"):
        wd.word_power("x", -2)
    with pytest.raises(wd.WordError, match="cap 64"):
        wd.word_power("b", 65)
    with pytest.raises(wd.WordError, match="cap 64"):
        wd.word_multiply(wd.word("a" * 40), wd.word("a" * 40))


def test_invert_is_antihomomorphism():
    rng = random.Random(9)
    words = wd.all_reduced_words(5)
    for _ in range(30):
        u, v = rng.choice(words), rng.choice(words)
        lhs = word_invert(wd.word_multiply(u, v))
        rhs = wd.word_multiply(word_invert(v), word_invert(u))
        assert lhs == rhs


def test_multiplication_is_associative_random():
    rng = random.Random(10)
    words = wd.all_reduced_words(6)
    for _ in range(50):
        u, v, w = (rng.choice(words) for _ in range(3))
        left = wd.word_multiply(wd.word_multiply(u, v), w)
        right = wd.word_multiply(u, wd.word_multiply(v, w))
        assert left == right


def test_row_count_cases():
    assert wd.fgroup_row_count(wd.word("BBa"), 3) == 1
    assert wd.fgroup_row_count(wd.word("ab"), 6) == 0
    assert wd.fgroup_row_count(wd.word("BBBBB"), 3) == 0
    assert wd.fgroup_row_count(wd.word("BBBBB"), 5) == 0  # lands on the empty word
    assert wd.fgroup_row_count(wd.word("Ba"), 1) == 1


def test_row_count_never_exceeds_one_short_exhaustive():
    for y in wd.all_reduced_words(6):
        for n in (1, 4, 8):
            assert wd.fgroup_row_count(y, n) <= 1
            assert fgroup_col_count(y, n) <= 1


def test_nonsubadditivity_certificate():
    rep = wd.fgroup_nonsubadditivity_certificate(3, check_len=6)
    assert rep["cert_class_a"].bound == Fraction(1, 3)
    assert rep["cert_class_b"].bound == Fraction(1, 3)
    assert rep["cert_class_a"].scope == "EXACT"
    assert rep["union_is_group"] and rep["subadditivity_gap"] == Fraction(1, 3)
    assert rep["max_row_count_checked"] <= 1
    vacuous = wd.fgroup_nonsubadditivity_certificate(1, check_len=3)
    assert vacuous["cert_class_a"].bound == 1


def test_nonsubadditivity_certificate_check_len_guard():
    # refused before any word is enumerated
    with pytest.raises(wd.WordError, match="cap"):
        wd.fgroup_nonsubadditivity_certificate(3, check_len=wd.MAX_CHECK_LEN + 1)
    rep = wd.fgroup_nonsubadditivity_certificate(1, check_len=wd.MAX_CHECK_LEN)
    assert rep["max_row_count_checked"] <= 1
