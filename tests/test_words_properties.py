"""Properties of the free-group words on random inputs.

The internal builders make words without validating them; each word they
return must still pass the public ``ReducedWord`` validation, and the
junction-cancelling product must agree with free reduction of the
concatenated letters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import word_invert

import soldens.words as wd
from soldens.errors import SoldensError

_TEXT = st.text(alphabet="aAbB", max_size=24)
_WORD = _TEXT.map(wd.word)


def _valid(w):
    assert type(w) is wd.ReducedWord
    assert wd.ReducedWord(w.letters) == w
    return w


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT)
def test_multiply_is_free_reduction_of_concatenation(s, t):
    u, v = _valid(wd.word(s)), _valid(wd.word(t))
    assert _valid(wd.word_multiply(u, v)) == wd.word(u.letters + v.letters)
    assert wd.word_multiply(u, v) == wd.word(s + t)


def _power(x, j):
    """x^j for a generator x and j in Z, built by the validating word()."""
    return wd.word(x * j if j >= 0 else x.upper() * -j)


@settings(max_examples=200, deadline=None)
@given(_WORD, st.sampled_from("ab"), st.integers(0, wd.MAX_WORD_LEN))
def test_builders_return_valid_words(w, letter, k):
    assert wd.word_multiply(w, word_invert(w)) == wd.EMPTY
    assert _valid(wd._POWERS[letter][k]) == _power(letter, k)
    for x in "ab":
        j, rest = wd._prefix_decompose(w, x)
        _valid(rest)
        assert wd.word_multiply(_power(x, j), rest) == w
        assert not rest.letters.startswith((x, x.upper()))


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="aAbBxy1 ", min_size=1, max_size=12))
def test_word_rejects_bad_letters(text):
    if set(text) <= set("aAbB"):
        _valid(wd.word(text))
    else:
        try:
            wd.word(text)
        except SoldensError as e:
            assert "bad letter" in str(e) and e.kind == "bad-input"
        else:
            raise AssertionError(f"word({text!r}) accepted a bad letter")


@given(st.integers(0, 6))
def test_all_reduced_words_is_strictly_length_lex(max_len):
    words = wd.all_reduced_words(max_len)
    assert len(words) == 2 * 3 ** max_len - 1
    for w in words:
        _valid(w)
    keys = [(len(w), w.letters) for w in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
