"""The free-group count on letter strings: the structural count reads the run
of gen^-1 and the letter after it, one first-letter table classes every word,
and the certificate checks n and slices the generator powers once, then forms
every cross-check product through ``word_multiply`` itself."""

import json

import pytest
from helpers import fgroup_col_count
from test_fgroup_cross_check import WRONG_PRODUCTS

import soldens.cli as cli
import soldens.words as wd
from soldens.errors import BAD_INPUT, SIZE_GUARD, SoldensError

WORDS6 = wd.all_reduced_words(6)


def _naive(gen, y, n, cls):
    """|{i in [1, n] : gen^i y in class cls}|, freely reducing the
    concatenated letters and classing the result by its first letter."""
    count = 0
    for i in range(1, n + 1):
        letters = wd.word(gen * i + y.letters).letters
        count += ("A" if letters.startswith(("a", "A")) else "B") == cls
    return count


@pytest.mark.parametrize("n", range(1, 9))
def test_both_counts_match_a_naive_count_on_every_short_word(n):
    for y in WORDS6:
        row = _naive("b", y, n, "A")
        assert wd.fgroup_row_count(y, n) == row
        assert wd.fgroup_row_count(y, n, cross_check=False) == row
        assert fgroup_col_count(y, n) == _naive("a", y, n, "B")


def test_a_word_not_led_by_the_inverse_generator_builds_no_word(monkeypatch):
    built, led = [], wd.word("BBa")
    set_letters = wd._set_letters

    def spy(w, letters):
        built.append(letters)
        set_letters(w, letters)

    monkeypatch.setattr(wd, "_set_letters", spy)
    monkeypatch.setattr(wd.ReducedWord, "__post_init__", lambda self: built.append(self.letters))
    for y in WORDS6:
        if not y.letters.startswith("B"):
            assert wd.fgroup_row_count(y, 8, cross_check=False) == 0
    assert built == []
    # the spy sees the rest word of a y that does start with b^-1
    assert wd.fgroup_row_count(led, 8, cross_check=False) == 1
    assert built == ["a"]


@pytest.mark.parametrize("wrong", WRONG_PRODUCTS)
def test_a_wrong_product_fails_the_certificate(monkeypatch, wrong):
    monkeypatch.setattr(wd, "word_multiply", WRONG_PRODUCTS[wrong])
    with pytest.raises(SoldensError, match="disagrees"):
        wd.fgroup_nonsubadditivity_certificate(2, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_counts_refuse_n_below_one(n):
    y = wd.word("Ba")
    for count in (wd.fgroup_row_count, fgroup_col_count,
                  lambda y, n: wd.fgroup_row_count(y, n, cross_check=False)):
        with pytest.raises(SoldensError, match="n must be >= 1") as err:
            count(y, n)
        assert err.value.kind == BAD_INPUT


@pytest.mark.parametrize("n, check_len", [(5, 10), (54, 10), (39, 8)])
def test_certificate_work_cap_fires_before_enumeration(monkeypatch, n, check_len):
    def no_enumeration(max_len):
        raise AssertionError("enumerated words before the work cap")

    monkeypatch.setattr(wd, "all_reduced_words", no_enumeration)
    products = 2 * n * (2 * 3 ** check_len - 1)
    assert products > wd.MAX_CERT_PRODUCTS
    with pytest.raises(SoldensError, match=f"form {products} products, above cap") as err:
        wd.fgroup_nonsubadditivity_certificate(n, check_len)
    assert err.value.kind == SIZE_GUARD


def test_cli_refuses_the_work_cap_with_exit_3(capsys):
    code = cli.run(["words", "fgroup-cert", "--n", "54", "--check-len", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["kind"] == "size-guard"
    assert out["error"] == (f"n 54 and check_len 10 form 12754476 products, "
                            f"above cap {wd.MAX_CERT_PRODUCTS}")
