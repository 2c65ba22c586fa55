"""Oracles and builders that the tests use and the program does not."""

import math

import soldens.perms as pm
import soldens.words as wd
import soldens.zline as zl


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
