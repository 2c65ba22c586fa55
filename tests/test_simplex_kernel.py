"""The int simplex kernel against its pinned raw ints and against the
full-tableau kernel that the condensed tableau replaced.

tests/data/lp_int_pinned.json holds the raw (d, x, duals) ints of
solve_lp_int, or its error message, as the full-tableau kernel returned them:
- every LP that sigma_R_via_game builds on a fixed sample of subsets, of
  every size, of the twelve groups of order at most 8 that perfbench's lp-sweep
  catalogs;
- the LPs that solve_game builds on small games with half-integer payoffs
  and on one 24x24 int game;
- hand-made LPs: rhs 0, Bland ties on entering and on leaving, Beale's
  cycling example, unbounded LPs and b < 0;
- random LPs with negative entries, zero rhs and unbounded cases.
Never regenerate it to make a change pass.
"""

import copy
import inspect
import json
import signal
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import soldens.groups as gr
import soldens.simplex as sx
from soldens.errors import SoldensError
from soldens.simplex import solve_lp_int

LP_INT_PINNED = Path(__file__).parent / "data" / "lp_int_pinned.json"


def _full_tableau_lp_int(c, a_rows, b):
    """The kernel before the condensed tableau, kept as the oracle: Bland's
    rule on the whole Bareiss tableau [A | I | b], slack columns included."""
    m, n = len(a_rows), len(c)
    if any(bi < 0 for bi in b):
        raise SoldensError("requires b >= 0")
    tab = [[*a_rows[i]] + [int(j == i) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [*c] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    width = n + m
    d = 1
    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            col = tab[i][enter]
            if col > 0:
                rhs = tab[i][width]
                if leave is None:
                    leave, best_rhs, best_col = i, rhs, col
                    continue
                lhs, cur = rhs * best_col, best_rhs * col
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, best_rhs, best_col = i, rhs, col
        if leave is None:
            raise SoldensError("unbounded LP")
        prow = tab[leave]
        piv = prow[enter]
        support = [j for j, w in enumerate(prow) if w]
        for i in range(m):
            if i != leave:
                tab[i] = _eliminate(tab[i], prow, support, enter, piv, d)
        obj = _eliminate(obj, prow, support, enter, piv, d)
        basis[leave] = enter
        d = piv
    x = [0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][width]
    return d, x, [-obj[n + i] for i in range(m)]


def _eliminate(row, prow, support, enter, piv, d):
    """The row after the pivot: (piv*v - f*w) // d entrywise, with f*w taken
    over the support of the pivot row only."""
    f = row[enter]
    if piv == d:
        if not f:
            return row
        new = row[:]
    else:
        new = [v * piv // d for v in row]
    if f:
        for j in support:
            new[j] = (row[j] * piv - f * prow[j]) // d
    return new


class _Cycling(Exception):
    pass


def _expire(signum, frame):
    raise _Cycling


def _outcome(kernel, c, a_rows, b):
    """(d, x, duals), the SoldensError message, or a note that no answer came
    within 5 s: a broken pivot rule can loop forever, and every LP here takes
    milliseconds."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(5)
    try:
        return kernel(c, a_rows, b)
    except SoldensError as e:
        return str(e)
    except _Cycling:
        return "no answer within 5 s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_kernel_returns_the_pinned_raw_ints():
    corpus = json.loads(LP_INT_PINNED.read_text())
    assert len(corpus) >= 400
    kinds = {case["name"].split()[0] for case in corpus}
    assert {"sigma_r", "game", "random", "unbounded", "negative", "entering", "leaving"} <= kinds
    for case in corpus:
        want = case["error"] if "error" in case else (case["d"], case["x"], case["duals"])
        assert _outcome(solve_lp_int, case["c"], case["a"], case["b"]) == want, case["name"]


def test_the_oracle_returns_the_pinned_raw_ints():
    for case in json.loads(LP_INT_PINNED.read_text()):
        want = case["error"] if "error" in case else (case["d"], case["x"], case["duals"])
        assert _outcome(_full_tableau_lp_int, case["c"], case["a"], case["b"]) == want, case["name"]


@st.composite
def _int_lp(draw):
    """A small int LP with negative entries; rhs 0 is common, b < 0 and
    unbounded LPs occur, and an all-positive row, when drawn, bounds it."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.lists(st.integers(-5, 9), min_size=n, max_size=n))
    a_rows = [draw(st.lists(st.integers(-6, 9), min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        a_rows.append(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    rhs = st.one_of(st.just(0), st.integers(0, 12), st.integers(-2, 12))
    b = draw(st.lists(rhs, min_size=len(a_rows), max_size=len(a_rows)))
    return c, a_rows, b


@st.composite
def _game_lp(draw):
    """The LP of a game with payoffs in {0, 1, 2}, as games._solve builds it:
    the many degenerate pivots of these are where entering by least label and
    entering by first column part."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    a_rows = [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)) for _ in range(m)]
    return [1] * n, a_rows, [draw(st.integers(1, 2))] * m


@settings(max_examples=500, deadline=None)
@given(st.one_of(_int_lp(), _game_lp()))
def test_kernel_matches_the_full_tableau_oracle(lp):
    c, a_rows, b = lp
    before = copy.deepcopy(lp)
    assert _outcome(solve_lp_int, c, a_rows, b) == _outcome(_full_tableau_lp_int, c, a_rows, b)
    assert lp == before  # the kernel pivots on its own rows


def test_a_cycling_pivot_rule_fails_at_the_pivot_cap():
    # Entering the first positive column instead of the least label cycles on
    # the maximin LP of sigma_R_via_game(cyclic(8), {0, 1, 6}); Bland's rule
    # visits no basis twice, so the kernel stops after C(16, 8) pivots.
    source = inspect.getsource(sx.solve_lp_int)
    assert source.count("enter = min(ready)[1]") == 1
    scope = dict(vars(sx))
    exec(source.replace("enter = min(ready)[1]", "enter = ready[0][1]"), scope)
    g = gr.cyclic(8)
    mask = gr.subset(g, [0, 1, 6]).mask
    payoff = [[mask >> h & 1 for h in g.table[g.inverse[x]]] for x in g.elements()]
    c, a_rows, b = [1] * 8, [[v + 1 for v in col] for col in zip(*payoff)], [1] * 8
    assert _outcome(scope["solve_lp_int"], c, a_rows, b) == (
        "more than C(16, 8) pivots: the pivot rule cycles")
    assert _outcome(solve_lp_int, c, a_rows, b) == (99, [9] * 8, [9] * 8)
