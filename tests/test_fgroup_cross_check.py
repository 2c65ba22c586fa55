"""The free-group row and column counts re-derive their structural count from
the direct products b^i y (a^i y for the column count). A wrong product must
make both counts fail loudly, so neither may skip that cross-check."""

import pytest
from helpers import fgroup_col_count

import soldens.words as wd
from soldens.errors import SoldensError

# y = b^-1 a and y = a^-1 b: the structural count is 1 for each, with n = 2
ROW_Y, COL_Y, N = wd.word("Ba"), wd.word("Ab"), 2

_true_product = wd.word_multiply
WRONG_PRODUCTS = {
    "swapped": lambda u, v: _true_product(v, u),
    "identity": lambda u, v: wd.EMPTY,
}


def test_counts_agree_with_the_true_product():
    assert wd.fgroup_row_count(ROW_Y, N) == 1
    assert fgroup_col_count(COL_Y, N) == 1


@pytest.mark.parametrize("wrong", WRONG_PRODUCTS)
def test_a_wrong_product_fails_both_counts(monkeypatch, wrong):
    monkeypatch.setattr(wd, "word_multiply", WRONG_PRODUCTS[wrong])
    with pytest.raises(SoldensError, match="disagrees"):
        wd.fgroup_row_count(ROW_Y, N)
    with pytest.raises(SoldensError, match="disagrees"):
        fgroup_col_count(COL_Y, N)
