"""Exact simplex for small LPs on a fraction-free integer tableau.

Solves  max c.x  s.t.  A x <= b, x >= 0  with b >= 0, which is all the game
engine ever needs. solve_lp_int is the pivot loop, on ints; the game kernel
calls it, and it returns the optimal x and duals as ints over the last pivot
d. solve_lp_max is its Fraction front end, the one place here that forms
Fractions: it scales the inputs to ints and divides the x and duals by d.

The front end scales the inputs once by the lcm L of all their
denominators. The LP max (Lc).x s.t. (LA) x <= Lb has the same optimal x and
the same duals. For any basis, its rational tableau is the unscaled one with
these factors: in a row whose basic variable is an x, the x columns and the
rhs times 1 and the slack columns times 1/L; a row whose basic variable is a
slack, times L throughout; in the objective row, the x columns times L and
the slack columns times 1. So all ratios of one ratio test share a common
factor (1 when an x column enters, L when a slack enters), every sign is
unchanged, and Bland's rule makes the same pivots. The slack reduced costs,
and with them the duals, are the unscaled ones.

Invariant (Edmonds 1967, Bareiss 1968): the tableau holds Python ints equal
to d times the rational tableau of the scaled LP, where d > 0 is the last
pivot entry (1 before the first pivot) and equals |det| of the current
basis. A pivot on entry p sets every entry outside the pivot row to
(p*v - f*w) // d, where f is the entry of its row in the pivot column and w
the entry of the pivot row in its column. That division is always exact,
since the result is an entry of adj(B) times the integer input. The pivot
row stays as it is and d becomes p.

Bland's rule keeps the pivoting deterministic and free of cycles: the
entering column is the least index with positive reduced cost, the leaving
row has the minimum ratio rhs/entry over positive entries, and a tie goes to
the smaller basic variable index. Ratios are compared by cross-multiplying
integers, which orders them exactly as the rational tableau does.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SoldensError


class SimplexError(SoldensError):
    pass


def solve_lp_max(c, a_rows, b):
    """Returns (objective, x, duals), all Fractions.

    Args: c, the rows of a_rows and b hold ints or Fractions (anything with
    .numerator and .denominator); b >= 0.

    duals[i] is the optimal dual multiplier of constraint i (the reduced cost
    of its slack variable in the final tableau).
    """
    scale = lcm(*(v.denominator for v in c), *(v.denominator for v in b),
                *(v.denominator for row in a_rows for v in row))

    def scaled(v):
        return v.numerator * (scale // v.denominator)

    d, x, duals = solve_lp_int([scaled(v) for v in c], [[scaled(v) for v in row] for row in a_rows],
                               [scaled(v) for v in b])
    x = [Fraction(v, d) for v in x]
    return sum(ci * xi for ci, xi in zip(c, x)), x, [Fraction(v, d) for v in duals]


def solve_lp_int(c, a_rows, b):
    """max c.x s.t. A x <= b, x >= 0 for int c, A and b >= 0. Returns (d, x,
    duals), where d > 0 and x and duals are int lists: solve_lp_max's optimum
    times d."""
    m, n = len(a_rows), len(c)
    if any(bi < 0 for bi in b):
        raise SimplexError("requires b >= 0")
    # Tableau rows: [a | slack I | rhs]; objective row holds reduced costs.
    tab = [[*a_rows[i]] + [int(j == i) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [*c] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    width = n + m
    d = 1

    while True:
        # Bland: entering = least-index column with positive reduced cost.
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
                # rhs/col vs best_rhs/best_col, both denominators positive.
                lhs, cur = rhs * best_col, best_rhs * col
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, best_rhs, best_col = i, rhs, col
        if leave is None:
            raise SimplexError("unbounded LP")
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
    """The row after the pivot: (piv*v - f*w) // d entrywise. Where the pivot
    row is 0 that is piv*v // d, so f*w is taken over its support only; when
    piv == d that scaling is the identity, and a row with f == 0 stays as it
    is."""
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
