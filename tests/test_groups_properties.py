"""Properties of the bitmask subset algebra on random groups and subsets.

Every set operation, every entry of translate_masks and every entry of
difference_table (asked for in a random order) is checked against a frozenset
recomputation made straight from group.table, and so are the subgroup test and
the generated subgroup, against a closure under products.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soldens.groups as gr
from test_partitions_properties import _GROUPS, _SPECS


@st.composite
def _case(draw):
    """A group, two index sets A and B (possibly empty) and two elements x, y."""
    g = _GROUPS[draw(st.sampled_from(_SPECS))]
    points = st.frozensets(st.integers(0, g.order - 1))
    element = st.integers(0, g.order - 1)
    return g, draw(points), draw(points), draw(element), draw(element)


def _members(s):
    assert s.members == frozenset(s.indices()) == frozenset(s)
    assert s.indices() == sorted(s.members) and len(s) == len(s.members)
    return s.members


@settings(max_examples=300, deadline=None)
@given(_case())
def test_set_algebra_matches_frozensets(case):
    g, a_pts, b_pts, x, y = case
    t, inv = g.table, g.inverse
    a, b = gr.subset(g, a_pts), gr.subset(g, b_pts)
    assert _members(a) == a_pts
    assert _members(gr.translate(g, a, x, y)) == {t[t[x][q]][y] for q in a_pts}
    assert _members(gr.left_translate(g, x, a)) == {t[x][q] for q in a_pts}
    assert _members(gr.translate(g, a, 0, y)) == {t[q][y] for q in a_pts}
    assert _members(gr.invert_set(g, a)) == {inv[q] for q in a_pts}
    assert _members(gr.product_set(g, a, b)) == {t[p][q] for p in a_pts for q in b_pts}
    assert _members(gr.difference_set(g, a)) == {t[p][inv[q]] for p in a_pts for q in a_pts}
    assert _members(a.union(b)) == a_pts | b_pts
    assert _members(a.complement()) == frozenset(g.elements()) - a_pts
    assert all((q in a) == (q in a_pts) for q in g.elements())


@settings(max_examples=300, deadline=None)
@given(_case())
def test_translate_masks_match_frozensets(case):
    g, a_pts, _, _, _ = case
    t = g.table
    a = gr.subset(g, a_pts)
    expected = {
        "left": {(x,): {t[x][q] for q in a_pts} for x in g.elements()},
        "right": {(y,): {t[q][y] for q in a_pts} for y in g.elements()},
        "two-sided": {(x, y): {t[t[x][q]][y] for q in a_pts}
                      for x, y in product(g.elements(), repeat=2)},
    }
    for pattern, oracle in expected.items():
        entries = gr.translate_masks(g, a, pattern)
        keys = [key for key, _ in entries]
        assert keys == sorted(oracle) == list(product(g.elements(), repeat=len(keys[0])))
        for key, mask in entries:
            assert _members(gr.GroupSubset(g, mask)) == oracle[key]


def _product_closure(g, points):
    """The identity and points, closed under products of pairs until nothing new appears."""
    t = g.table
    closed = {0} | set(points)
    while True:
        grown = closed | {t[p][q] for p in closed for q in closed}
        if grown == closed:
            return closed
        closed = grown


@settings(max_examples=300, deadline=None)
@given(_case())
def test_subgroup_test_and_generated_subgroup_match_a_product_closure(case):
    g, a_pts, _, _, _ = case
    a = gr.subset(g, a_pts)
    closed = _product_closure(g, a_pts)
    assert all(g.inverse[q] in closed for q in closed)  # the oracle is a subgroup
    assert gr.is_subgroup(g, a) == (a_pts == closed)
    assert gr.is_subgroup(g, gr.subset(g, closed))
    if a_pts:
        assert _members(gr.subgroup_generated(g, a)) == closed
    else:
        with pytest.raises(gr.GroupError) as info:
            gr.subgroup_generated(g, a)
        assert info.value.kind == "bad-input"


def _reference_verdict(table):
    """The group axioms checked one triple at a time, in the order that makes
    the first failure the lexicographically least Violation."""
    n = len(table)
    for g in range(n):
        if len(table[g]) != n:
            return gr.Violation("range", (g,))
        for h in range(n):
            if not (0 <= table[g][h] < n):
                return gr.Violation("range", (g, h))
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            return gr.Violation("identity", (g,))
    for g in range(n):
        if len([h for h in range(n) if table[g][h] == 0 and table[h][g] == 0]) != 1:
            return gr.Violation("inverse", (g,))
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return gr.Violation("associativity", (a, b, c))
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_difference_table_matches_the_product_loop_in_any_query_order(data):
    # one table per example, asked for every mask in a drawn order, so that no
    # entry may depend on which masks were asked for before it
    g = _GROUPS[data.draw(st.sampled_from(_SPECS))]
    t, inv = g.table, g.inverse
    diff = gr.difference_table(g)
    for mask in data.draw(st.permutations(range(1 << g.order))):
        pts = [q for q in g.elements() if mask >> q & 1]
        assert diff(mask) == sum(1 << d for d in {t[p][inv[q]] for p in pts for q in pts})


@st.composite
def _corrupted_table(draw):
    """A group table of order <= 8 with a few entries overwritten, mostly off
    the identity row and column so that associativity is what breaks; or a
    table of order <= 4 that is free off its identity row and column."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(1, 4))
        return [[g if h == 0 else h if g == 0 else draw(st.integers(0, n - 1)) for h in range(n)]
                for g in range(n)]
    g = _GROUPS[draw(st.sampled_from([s for s in _SPECS if _GROUPS[s].order <= 8]))]
    n = g.order
    table = [list(row) for row in g.table]
    low = 1 if n > 1 and draw(st.integers(0, 9)) else 0
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(low, n - 1)), draw(st.integers(low, n - 1))
        table[i][j] = draw(st.integers(0, n if draw(st.integers(0, 19)) == 0 else n - 1))
    return table


@settings(max_examples=500, deadline=None)
@given(_corrupted_table())
def test_validate_table_matches_the_triple_loop(table):
    assert gr.validate_table(table) == _reference_verdict(table)
