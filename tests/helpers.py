"""Oracles and builders that the tests use and the program does not."""

import math
from fractions import Fraction

import soldens.perms as pm
import soldens.words as wd
import soldens.zline as zl
from soldens.simplex import solve_lp_int


def solve_lp_max(c, a_rows, b):
    """Returns (objective, x, duals), all Fractions: solve_lp_int's Fraction
    front end, which scales the inputs to ints and divides the x and duals by d.

    Args: c, the rows of a_rows and b hold ints or Fractions (anything with
    .numerator and .denominator); b >= 0.

    duals[i] is the optimal dual multiplier of constraint i (the reduced cost
    of its slack variable in the final tableau).

    The inputs are scaled once by the lcm L of all their denominators. The LP
    max (Lc).x s.t. (LA) x <= Lb has the same optimal x and the same duals.
    For any basis, its rational tableau is the unscaled one with these
    factors: in a row whose basic variable is an x, the x columns and the rhs
    times 1 and the slack columns times 1/L; a row whose basic variable is a
    slack, times L throughout; in the objective row, the x columns times L and
    the slack columns times 1. So all ratios of one ratio test share a common
    factor (1 when an x column enters, L when a slack enters), every sign is
    unchanged, and Bland's rule makes the same pivots. The slack reduced
    costs, and with them the duals, are the unscaled ones.
    """
    scale = math.lcm(*(v.denominator for v in c), *(v.denominator for v in b),
                     *(v.denominator for row in a_rows for v in row))

    def scaled(v):
        return v.numerator * (scale // v.denominator)

    d, x, duals = solve_lp_int([scaled(v) for v in c], [[scaled(v) for v in row] for row in a_rows],
                               [scaled(v) for v in b])
    x = [Fraction(v, d) for v in x]
    return sum(ci * xi for ci, xi in zip(c, x)), x, [Fraction(v, d) for v in duals]


def weight(mu, point):
    """The weight of point under the measure mu, 0 off its support."""
    return dict(mu.entries).get(point, Fraction(0))


def from_integers(points):
    """Finite set of integers as a ZSet."""
    return zl.zset(1, (), add=points)


def z_equal(a, b):
    """Equal normal forms once both residue sets are lifted to the lcm modulus."""
    big = math.lcm(a.m, b.m)
    lifted = [{r + k * z.m for r in z.residues for k in range(big // z.m)} for z in (a, b)]
    return lifted[0] == lifted[1] and (a.add, a.remove) == (b.add, b.remove)


def covers(f, a, window):
    """Check F + A = Z on [-window, window]."""
    return all(any((x - t) in a for t in f) for x in range(-window, window + 1))


_INVERT = str.maketrans(wd._INV)


def word_invert(u):
    return wd._trusted(u.letters[::-1].translate(_INVERT))


def fgroup_col_count(y, n):
    """The certificate's class-B count for F = {a, ..., a^n}, always cross-checked."""
    return wd._fgroup_count(y, n, "A", "B", wd._powers("a", n, True))


def transposition(x, y):
    return pm.perm({x: y, y: x})


def perm_compose(f, g):
    """(f o g)(x) = f(g(x))."""
    fm, gm = dict(f.mapping), dict(g.mapping)
    gx = {x: gm.get(x, x) for x in fm.keys() | gm.keys()}
    return pm.perm({x: fm.get(y, y) for x, y in gx.items()})
