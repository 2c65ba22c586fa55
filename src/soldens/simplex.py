"""Exact simplex for small LPs on a condensed fraction-free integer tableau.

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
basis. The column of the i-th basic variable is then d*e_i, so it is not
kept: the tableau is condensed, as in Avis's lrs, to one column per
nonbasic variable (nb names the variable of each) and the rhs. A pivot on
entry p in row r and column q sets every entry outside row r and column q
to (p*v - f*w) // d, where f is the entry of its row in column q and w the
entry of row r in its column. That division is always exact, since the
result is an entry of adj(B) times the integer input. Column q then holds
the leaving variable, whose full column d*e_r has become -f in each other
row and d in row r: so column q gets -f, the pivot entry gets d, the rest
of row r stays as it is, and d becomes p. Every entry is the one the full
tableau holds in that variable's column.

Bland's rule keeps the pivoting deterministic and free of cycles: the
entering variable is the least label (x_j is j, slack i is n + i) with
positive reduced cost, whatever column it sits in; the leaving row has the
minimum ratio rhs/entry over positive entries, and a tie goes to the
smaller basic variable label. Ratios are compared by cross-multiplying
integers, which orders them exactly as the rational tableau does. A basic
slack has dual 0, and a nonbasic one minus its reduced cost. Since Bland's
rule never repeats a basis, a pivot count above C(m + n, m), the number of
bases, means the rule cycles, and the kernel raises SimplexError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

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
    # Rows: [nonbasic columns | rhs], the last one the reduced costs; column j
    # holds variable nb[j], row i < m basic variable basis[i].
    tab = [[*row, bi] for row, bi in zip(a_rows, b)] + [[*c, 0]]
    nb, basis = list(range(n)), list(range(n, n + m))
    d = 1
    budget = comb(m + n, m)  # the number of bases, none of which Bland's rule repeats

    while True:
        obj = tab[m]
        # Bland: enter the least variable with positive reduced cost.
        ready = [(v, j) for j, v in enumerate(nb) if obj[j] > 0]
        if not ready:
            break
        enter = min(ready)[1]
        budget -= 1
        if budget < 0:
            raise SimplexError(f"more than C({m + n}, {m}) pivots: the pivot rule cycles")
        leave = None
        for i in range(m):
            col = tab[i][enter]
            if col > 0:
                rhs = tab[i][n]
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
        for i, row in enumerate(tab):
            f = row[enter]  # a row with f == 0 only scales by piv/d
            if i != leave and (f or piv != d):
                tab[i] = [(piv * v - f * w) // d for v, w in zip(row, prow)]
                tab[i][enter] = -f
        prow[enter] = d
        nb[enter], basis[leave] = basis[leave], nb[enter]
        d = piv

    x, duals = [0] * n, [0] * m
    for i, v in enumerate(basis):
        if v < n:
            x[v] = tab[i][n]
    for j, v in enumerate(nb):
        if v >= n:
            duals[v - n] = -obj[j]
    return d, x, duals
