"""Properties of the ZSet normal form on random inputs.

``zset`` re-derives the patches from membership, so building a set again from
its own normal form changes nothing, and two sets are ``z_equal`` exactly when
they hold the same integers. Outside its patches a set is periodic, so
agreement on a window that covers every patch plus a full common period on
each side is agreement everywhere. The Jin and ergodic covers are the first
minimum covers in itertools.combinations order. Sumsets and the sets of good
shifts agree with their definitions, searched point by point, and the cover
check on all of Z agrees with the one on a window and with a direct count of
every shift against every residue and removed point.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import covers, z_equal

import soldens.zline as zl

SPAN = 12
_POINTS = st.lists(st.integers(-SPAN, SPAN), max_size=6)


@st.composite
def zsets(draw):
    m = draw(st.integers(1, 6))
    return zl.zset(m, draw(st.lists(st.integers(-10, 10), max_size=m)), draw(_POINTS), draw(_POINTS))


@st.composite
def rewritten(draw, a):
    """a over a multiple of its modulus, its patches spelled out point by point
    on a window, with at most one point of that window flipped."""
    big = a.m * draw(st.integers(1, 3))
    far = big * (SPAN + 1)  # beyond every patch, only the residues decide
    residues = [r for r in range(big) if r + far in a]
    window = range(-SPAN - 1, SPAN + 2)
    members = {x for x in window if x in a}
    flip = draw(st.none() | st.sampled_from(window))
    if flip is not None:
        members ^= {flip}
    return zl.zset(big, residues, add=members, remove=set(window) - members)


@settings(max_examples=300, deadline=None)
@given(zsets())
def test_normal_form_is_idempotent(a):
    assert zl.zset(a.m, a.residues, a.add, a.remove) == a


def _agree_on_window(a, b):
    period = math.lcm(a.m, b.m)
    w = max(a.patch_span(), b.patch_span()) + 2 * period
    return all((x in a) == (x in b) for x in range(-w, w + 1))


@settings(max_examples=300, deadline=None)
@given(zsets(), zsets())
def test_z_equal_is_pointwise_equality_on_random_pairs(a, b):
    assert z_equal(a, b) == _agree_on_window(a, b)


@settings(max_examples=300, deadline=None)
@given(zsets().flatmap(lambda a: st.tuples(st.just(a), rewritten(a))))
def test_z_equal_is_pointwise_equality_on_near_copies(pair):
    a, b = pair
    assert z_equal(a, b) == _agree_on_window(a, b)


def _first_min_cover(m, residues):
    """Exhaustive oracle: the first shift set, in itertools.combinations
    order, whose translates of the residues cover Z/m."""
    for size in range(1, m + 1):
        for shifts in combinations(range(m), size):
            if {(r + t) % m for r in residues for t in shifts} == set(range(m)):
                return shifts


_PERIODIC = st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.sets(st.integers(0, m - 1), min_size=1), st.sets(st.integers(0, m - 1), min_size=1)))


@settings(max_examples=300, deadline=None)
@given(_PERIODIC)
def test_ergodic_and_jin_covers_are_the_first_minimum_covers(inp):
    m, ra, rb = inp
    a, b = zl.zset(m, ra), zl.zset(m, rb)
    assert zl.ergodic_sup_check(a)["f"] == _first_min_cover(m, a.residues)
    jin = zl.jin_witness(a, b)
    assert jin["f"] == _first_min_cover(m, jin["sumset"].residues)


def _in_sumset(a, b, x):
    """Some y in a with x - y in b. A representation whose two parts both miss
    every patch moves by multiples of the common period, so one lies within a
    period of the window that holds x and the patches."""
    reach = abs(x) + max(a.patch_span(), b.patch_span()) + 2 * math.lcm(a.m, b.m)
    return any(y in a and (x - y) in b for y in range(-reach, reach + 1))


@settings(max_examples=300, deadline=None)
@given(zsets(), zsets())
def test_sumset_is_the_pointwise_sumset(a, b):
    s, _ = zl.sumset(a, b)
    assert all((x in s) == _in_sumset(a, b, x) for x in range(-30, 31))


_RESIDUE_SETS = st.integers(1, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.sets(st.integers(0, m - 1))))


@settings(max_examples=300, deadline=None)
@given(_RESIDUE_SETS, st.data())
def test_good_shifts_are_those_of_the_definition(inp, data):
    m, residues = inp
    a = zl.zset(m, residues)
    eps = data.draw(st.sampled_from([-1, 0, Fraction(1, m), zl.dstar(a), Fraction(1, 4),
                                     Fraction(1, 3), Fraction(1, 2), 2])
                    | st.fractions(0, 1, max_denominator=3 * m))
    overlap = {x: len(a.residues & {(r + x) % m for r in a.residues}) for x in range(m)}
    good = [x for x in range(m) if Fraction(overlap[x], m) >= eps]
    assert z_equal(zl.delta_eps(a, eps), zl.zset(m, good))
    assert z_equal(zl.delta_ideal(a), zl.zset(m, [x for x in range(m) if overlap[x]]))


_PATCH = st.lists(st.integers(-40, 40), max_size=6)


@st.composite
def raw_zsets(draw):
    """ZSets as zset normalizes them, and as built by hand: add and remove may
    overlap, and removed points may lie outside the residue classes."""
    m = draw(st.integers(1, 12))
    residues = draw(st.sets(st.integers(0, m - 1)))
    add, remove = draw(_PATCH), draw(_PATCH)
    if draw(st.booleans()):
        return zl.zset(m, residues, add, remove)
    remove += add[:draw(st.integers(0, len(add)))]
    return zl.ZSet(m, frozenset(residues), frozenset(add), frozenset(remove))


@settings(max_examples=300, deadline=None)
@given(raw_zsets(), st.lists(st.integers(-15, 15), max_size=8))
def test_the_cover_check_on_all_of_z_is_the_windowed_one(a, f):
    # beyond every point of the patches + F, membership of x - t repeats with
    # period m, so a window reaching a period past them decides all of Z
    assert zl._covers_z(f, a) == covers(f, a, 40 + 15 + 2 * a.m + 60)


def _covers_by_direct_count(f, a):
    # per[c] over every class and blocked[x] over every pair of a shift and a
    # removed point of R + mZ, with no bound and no early stop
    m = a.m
    per = Counter((t + r) % m for t in f for r in a.residues)
    blocked = Counter(p + t for p in a.remove if p % m in a.residues for t in f)
    return len(per) == m and all(any(x - t in a.add for t in f)
                                 for x, n in blocked.items() if n >= per[x % m])


@st.composite
def patched_zsets_and_shifts(draw):
    """A hand-built ZSet with add and remove points (they may overlap) and a
    modulus up to 40, with classify's witness for it, or with drawn shifts each
    taken in 1 to 3 copies t, t + s, t + 2s, for s = m or s = 0, so that the
    copies of a class of F may or may not outnumber the removed points, and F
    may name a shift more than once."""
    m = draw(st.integers(1, 40))
    residues = draw(st.sets(st.integers(0, m - 1)))
    add = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
    remove = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
    a = zl.ZSet(m, frozenset(residues), frozenset(add), frozenset(remove))
    if residues and draw(st.booleans()):
        return a, zl.large_witness(a)
    copies, step = draw(st.integers(1, 3)), draw(st.sampled_from([m, 0]))
    return a, [t + j * step for t in draw(st.lists(st.integers(-15, 15), max_size=8))
               for j in range(copies)]


@settings(max_examples=400, deadline=None)
@given(patched_zsets_and_shifts())
def test_the_cover_check_agrees_with_the_direct_count(case):
    a, f = case
    assert zl._covers_z(f, a) == _covers_by_direct_count(f, a)
