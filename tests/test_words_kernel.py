"""The free-group count kernel behind the non-subadditivity certificate.

The certificate keeps its full strength: every product gen^i y of its
cross-check goes through the module's ``word_multiply``, and both counts agree
with a naive count that freely reduces the concatenated letters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import fgroup_col_count

import soldens.words as wd


@pytest.mark.parametrize("n, check_len", [(2, 6), (5, 5), (8, 6)])
def test_certificate_forms_every_product_through_word_multiply(monkeypatch, n, check_len):
    calls = 0
    true_product = wd.word_multiply

    def spy(u, v):
        nonlocal calls
        calls += 1
        return true_product(u, v)

    monkeypatch.setattr(wd, "word_multiply", spy)
    cert = wd.fgroup_nonsubadditivity_certificate(n, check_len)
    assert cert["max_row_count_checked"] == 1
    # n row products and n column products for each of the 2*3^c - 1 words
    assert calls == 2 * n * (2 * 3 ** check_len - 1)


@st.composite
def _words(draw):
    """Reduced words, often led by a run of one generator, so that the
    structural count is 1 as well as 0."""
    run = draw(st.sampled_from("aAbB")) * draw(st.integers(0, 11))
    return wd.word(run + draw(st.text(alphabet="aAbB", max_size=14)))


def _naive(gen, y, n, cls):
    return sum(("A" if wd.word(gen * i + y.letters).letters.startswith(("a", "A")) else "B") == cls
               for i in range(1, n + 1))


@settings(max_examples=400, deadline=None)
@given(_words(), st.integers(1, 10))
def test_counts_match_a_naive_count(y, n):
    assert wd.fgroup_row_count(y, n) == _naive("b", y, n, "A")
    assert fgroup_col_count(y, n) == _naive("a", y, n, "B")
    for x in "ab":
        if not y.letters.startswith((x, x.upper())):
            assert wd._prefix_decompose(y, x) == (0, y)
            assert wd._prefix_decompose(y, x)[1] is y
