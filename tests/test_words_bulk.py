"""The bulk paths of the free-group words: enumeration wraps letter strings in
one pass, the product skips the junction scan when nothing cancels, the
cross-check reads generator powers from a table, and the certificate refuses
n + check_len above the word-length cap before it enumerates anything."""

import gc
import json
from itertools import product

import pytest
from helpers import fgroup_col_count

import soldens.cli as cli
import soldens.words as wd
from soldens.errors import SIZE_GUARD


def _naive_reduced(max_len):
    out = []
    for j in range(max_len + 1):
        for letters in product("aAbB", repeat=j):
            if all(wd._INV[x] != y for x, y in zip(letters, letters[1:])):
                out.append("".join(letters))
    return sorted(out, key=lambda s: (len(s), s))


@pytest.mark.parametrize("k", range(7))
def test_all_reduced_words_matches_naive_oracle(k):
    words = wd.all_reduced_words(k)
    assert [w.letters for w in words] == _naive_reduced(k)
    assert all(type(w) is wd.ReducedWord for w in words)


def test_enumeration_restores_the_collector_state():
    assert gc.isenabled()
    wd.all_reduced_words(3)
    assert gc.isenabled()
    gc.disable()
    try:
        wd.all_reduced_words(3)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_product_cap_and_cancellation():
    with pytest.raises(wd.WordError, match="exceeds cap") as err:
        wd.word_multiply(wd.word("ab" * 20), wd.word("ba" * 20))
    assert err.value.kind == SIZE_GUARD
    assert wd.word_multiply(wd.word("a" * 40), wd.word("A" * 40)) == wd.EMPTY


@pytest.mark.parametrize("s, t", [("", ""), ("", "aB"), ("ab", ""), ("ab", "ab"), ("aB", "Ba"),
                                  ("AbA", "bbA"), ("b" * 30, "a" * 34)])
def test_uncancelled_products_concatenate(s, t):
    u, v = wd.word(s), wd.word(t)
    assert wd.word_multiply(u, v) == wd.word(u.letters + v.letters)
    assert wd.word_multiply(u, v).letters == s + t


@pytest.mark.parametrize("count", [wd.fgroup_row_count, fgroup_col_count])
def test_counts_past_the_powers_table_raise_the_size_guard(count):
    y = wd.word("Ba")
    with pytest.raises(wd.WordError, match="exceeds cap") as err:
        count(y, wd.MAX_WORD_LEN + 1)
    assert err.value.kind == SIZE_GUARD


def test_structural_row_count_needs_no_powers():
    assert wd.fgroup_row_count(wd.word("Ba"), wd.MAX_WORD_LEN + 1, cross_check=False) == 1
    assert wd.fgroup_row_count(wd.word("ab"), wd.MAX_WORD_LEN + 1, cross_check=False) == 0


def test_certificate_guard_fires_before_enumeration(monkeypatch):
    def no_enumeration(max_len):
        raise AssertionError("enumerated words before the size guard")

    monkeypatch.setattr(wd, "all_reduced_words", no_enumeration)
    with pytest.raises(wd.WordError, match="n 60 \\+ check_len 5") as err:
        wd.fgroup_nonsubadditivity_certificate(60, 5)
    assert err.value.kind == SIZE_GUARD


def test_certificate_admits_n_plus_check_len_at_the_cap():
    rep = wd.fgroup_nonsubadditivity_certificate(60, 4)
    assert rep["n"] == 60 and rep["max_row_count_checked"] == 1


def test_cli_size_guard_for_n_plus_check_len(capsys):
    code = cli.run(["words", "fgroup-cert", "--n", "64", "--check-len", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["kind"] == "size-guard"
    assert "n 64 + check_len 8" in out["error"]
