"""Properties of the exact simplex and the game solver on random inputs.

Each optimum is checked on its own terms (feasibility, dual feasibility and
strong duality), with no second solver as oracle. The one shortcut, the
uniform-pair certificate of games._value, is checked against the pivot,
which _solve(ints, den, False) runs even where the uniform pair is certified.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import soldens.cli as cli
import soldens.games as gm
import soldens.groups as gr
from soldens.simplex import SimplexError, solve_lp_int, solve_lp_max

_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_NONNEG = st.builds(Fraction, st.integers(0, 9), st.integers(1, 6))
_POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))


@st.composite
def _bounded_lp(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.lists(_RATIONAL, min_size=n, max_size=n))
    a_rows = [draw(st.lists(_RATIONAL, min_size=n, max_size=n)) for _ in range(m)]
    # an all-positive row keeps the feasible region bounded
    a_rows.append(draw(st.lists(_POSITIVE, min_size=n, max_size=n)))
    b = draw(st.lists(_NONNEG, min_size=m + 1, max_size=m + 1))
    return c, a_rows, b


@settings(max_examples=150, deadline=None)
@given(_bounded_lp())
def test_simplex_optimum_is_certified_by_its_duals(lp):
    c, a_rows, b = lp
    assume(lcm(*(v.denominator for v in c + b + [w for row in a_rows for w in row])) > 1)
    obj, x, y = solve_lp_max(c, a_rows, b)
    assert all(xj >= 0 for xj in x) and all(yi >= 0 for yi in y)
    for row, bi in zip(a_rows, b):
        assert sum(aij * xj for aij, xj in zip(row, x)) <= bi
    for j, cj in enumerate(c):
        assert sum(row[j] * yi for row, yi in zip(a_rows, y)) >= cj
    assert obj == sum(cj * xj for cj, xj in zip(c, x)) == sum(bi * yi for bi, yi in zip(b, y))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_game_value_is_the_guarantee_of_both_strategies(payoff):
    sol = gm.solve_game(gm.game(payoff))
    rows, cols = range(len(payoff)), range(len(payoff[0]))
    # the row player minimizes: its worst case over columns is the value
    assert max(sum(sol.row_strategy.weight(i) * payoff[i][j] for i in rows) for j in cols) == sol.value
    assert min(sum(sol.col_strategy.weight(j) * payoff[i][j] for j in cols) for i in rows) == sol.value


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_RATIONAL, min_size=n, max_size=n), min_size=1, max_size=4)),
    _RATIONAL)
def test_adding_a_constant_moves_only_the_value(payoff, c):
    # The shift makes M and M + c the same LP up to a row scale, so Bland's
    # rule pivots alike and the duals must be unscaled exactly.
    base = gm.solve_game(gm.game(payoff))
    moved = gm.solve_game(gm.game([[v + c for v in row] for row in payoff]))
    assert moved.value == base.value + c
    assert cli.dumps(moved.row_strategy) == cli.dumps(base.row_strategy)
    assert cli.dumps(moved.col_strategy) == cli.dumps(base.col_strategy)


@settings(max_examples=50, deadline=None)
@given(_bounded_lp(), st.data())
def test_simplex_rejects_negative_rhs_and_unbounded_lps(lp, data):
    c, a_rows, b = lp
    i = data.draw(st.integers(0, len(b) - 1))
    negative = b[:i] + [-data.draw(_POSITIVE)] + b[i + 1:]
    with pytest.raises(SimplexError, match="b >= 0"):
        solve_lp_max(c, a_rows, negative)
    # a column with positive cost and no positive entry can grow forever
    j = data.draw(st.integers(0, len(c) - 1))
    c = c[:j] + [data.draw(_POSITIVE)] + c[j + 1:]
    a_rows = [row[:j] + [-abs(row[j])] + row[j + 1:] for row in a_rows]
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp_max(c, a_rows, b)


@st.composite
def _bounded_int_lp(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    a_rows = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) for _ in range(m)]
    a_rows.append(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    b = draw(st.lists(st.integers(0, 9), min_size=m + 1, max_size=m + 1))
    return c, a_rows, b


@settings(max_examples=150, deadline=None)
@given(_bounded_int_lp())
def test_int_kernel_optimum_is_certified_and_matches_the_fraction_front_end(lp):
    c, a_rows, b = lp
    d, x, y = solve_lp_int(c, a_rows, b)
    assert all(type(v) is int for v in [d, *x, *y]) and d > 0
    assert all(xj >= 0 for xj in x) and all(yi >= 0 for yi in y)
    for row, bi in zip(a_rows, b):
        assert sum(aij * xj for aij, xj in zip(row, x)) <= d * bi
    for j, cj in enumerate(c):
        assert sum(row[j] * yi for row, yi in zip(a_rows, y)) >= d * cj
    assert sum(cj * xj for cj, xj in zip(c, x)) == sum(bi * yi for bi, yi in zip(b, y))
    obj, fx, fy = solve_lp_max(c, a_rows, b)
    assert fx == [Fraction(v, d) for v in x] and fy == [Fraction(v, d) for v in y]
    assert obj == Fraction(sum(cj * xj for cj, xj in zip(c, x)), d)


@st.composite
def _int_payoff(draw):
    """A small int payoff; half are circulant, whose row and column sums all meet."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return [v[i:] + v[:i] for i in range(n)]
    m = draw(st.integers(1, 4))
    return [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(_int_payoff(), st.integers(1, 6))
def test_value_shortcut_equals_the_pivoted_value(ints, den):
    assert gm._value(ints, den) == gm._solve(ints, den, False).value


_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "s3", "d4",
          "cyclic:2*cyclic:2", "cyclic:2*cyclic:4")
_GROUPS = {spec: gr.build_group(spec) for spec in _SPECS}


@st.composite
def _cayley_payoff(draw):
    """The payoff [g h in A] of a catalog group, rows and columns permuted."""
    g = _GROUPS[draw(st.sampled_from(_SPECS))]
    mask = draw(st.integers(0, 2 ** g.order - 1))
    rows = draw(st.permutations(range(g.order)))
    cols = draw(st.permutations(range(g.order)))
    return [[mask >> g.table[x][y] & 1 for y in cols] for x in rows]


@settings(max_examples=200, deadline=None)
@given(_cayley_payoff(), st.integers(1, 6))
def test_value_shortcut_on_cayley_payoffs(ints, den):
    assert gm._value(ints, den) == gm._solve(ints, den, False).value
