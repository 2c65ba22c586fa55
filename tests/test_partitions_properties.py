"""Properties of the covering and packing numbers on random groups and subsets.

The branch and bound of cov and of pack is each checked against a brute-force
oracle that tries every set of translates in itertools.combinations order, and
the cover kernel least_cover against the same oracle on arbitrary mask families,
also with points already covered, which it must leave out.
pack is also checked to depend on AA^-1 alone, and its E to be independent and
maximal in the conflict graph that AA^-1 defines.
The pruned search of the partition scans is checked against a recursive
restricted-growth-string generator: its first partition whose cells all reach
a threshold, and its count. verify_thm137, verify_thm139 and protasov_search
are checked against brute force over every partition, with the real cov and
with drawn stand-ins antitone in AA^-1 that make the failure paths reachable.
"""

import functools
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soldens.groups as gr
import soldens.partitions as pt
from soldens.errors import SoldensError

_SPECS = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "s3",
          "cyclic:7", "cyclic:8", "d4", "cyclic:2*cyclic:2", "cyclic:2*cyclic:4",
          "cyclic:2*cyclic:2*cyclic:2")
_GROUPS = {spec: gr.build_group(spec) for spec in _SPECS}


@st.composite
def _group_and_set(draw):
    """A nonempty A, or the difference set AA^-1 that the partition scans cover."""
    g = _GROUPS[draw(st.sampled_from(_SPECS))]
    a = gr.subset(g, draw(st.sets(st.integers(0, g.order - 1), min_size=1)))
    return g, gr.difference_set(g, a) if draw(st.booleans()) else a


def _covers(g, f, a):
    return {g.table[x][y] for x in f for y in a.members} == set(g.elements())


def _first_cover(g, a, size):
    return next((f for f in combinations(g.elements(), size) if _covers(g, f, a)), None)


@settings(max_examples=400, deadline=None)
@given(_group_and_set())
def test_cov_is_the_first_minimal_cover(case):
    g, a = case
    size, f = pt.cov(g, a)
    assert size == len(f) and _covers(g, f, a)
    assert _first_cover(g, a, size - 1) is None
    assert f == _first_cover(g, a, size)


def _first_packing(g, a):
    """The largest pairwise-disjoint family of left translates, the first of
    its size in itertools.combinations order."""
    translates = [frozenset(g.table[x][y] for y in a.members) for x in g.elements()]
    for size in range(g.order, 0, -1):
        for e in combinations(g.elements(), size):
            if all(translates[x].isdisjoint(translates[y]) for x, y in combinations(e, 2)):
                return e


@settings(max_examples=400, deadline=None)
@given(_group_and_set())
def test_pack_is_the_first_maximal_packing(case):
    g, a = case
    e = _first_packing(g, a)
    assert pt.pack(g, a) == (len(e), e)


def _difference(g, members):
    """AA^-1 recomputed from the group table."""
    inverse = [row.index(0) for row in g.table]
    return frozenset(g.table[x][inverse[y]] for x in members for y in members)


@functools.cache
def _subsets_by_difference(spec):
    """The nonempty subsets of the group, as index tuples, grouped by AA^-1."""
    g = _GROUPS[spec]
    classes = {}
    for size in range(1, g.order + 1):
        for a in combinations(g.elements(), size):
            classes.setdefault(_difference(g, a), []).append(a)
    return classes


@st.composite
def _twin_sets(draw):
    """Two nonempty subsets A and B with AA^-1 = BB^-1, and that AA^-1."""
    spec = draw(st.sampled_from(_SPECS))
    classes = _subsets_by_difference(spec)
    d = draw(st.sampled_from(sorted(classes, key=sorted)))
    a, b = draw(st.sampled_from(classes[d])), draw(st.sampled_from(classes[d]))
    g = _GROUPS[spec]
    return g, d, gr.subset(g, a), gr.subset(g, b)


@settings(max_examples=400, deadline=None)
@given(_twin_sets())
def test_pack_depends_on_the_difference_set_alone(case):
    g, d, a, b = case
    size, e = pt.pack(g, a)
    assert pt.pack(g, b) == (size, e) and size == len(e)
    # E is independent and maximal in the graph x ~ y <=> y in x*AA^-1, y != x
    near = {x: {g.table[x][h] for h in d} - {x} for x in g.elements()}
    assert all(near[x].isdisjoint(e) for x in e)
    assert all(near[z].intersection(e) for z in g.elements() if z not in e)


def _first_least_cover(n, masks):
    """The first cover of range(n) of minimal size in itertools.combinations
    order, or None when the masks do not cover."""
    full = (1 << n) - 1
    for size in range(len(masks) + 1):
        for f in combinations(range(len(masks)), size):
            covered = 0
            for x in f:
                covered |= masks[x]
            if covered & full == full:
                return f
    return None


@st.composite
def _mask_family(draw):
    """Arbitrary masks over range(n), not translates of one set: some repeat
    an earlier mask, and some families leave a point uncovered. Half of them
    get extra masks, at drawn positions, that cover what the others miss."""
    n = draw(st.integers(0, 12))
    full = (1 << n) - 1
    masks = []
    for _ in range(draw(st.integers(0, 9))):
        if masks and draw(st.booleans()):
            masks.append(draw(st.sampled_from(masks)))
        else:
            masks.append(draw(st.integers(0, full)))
    if draw(st.booleans()):
        rest = full
        for mask in masks:
            rest &= ~mask
        while rest:
            patch = rest & draw(st.integers(0, full)) or rest & -rest
            masks.insert(draw(st.integers(0, len(masks))), patch)
            rest &= ~patch
    return n, masks


@settings(max_examples=400, deadline=None)
@given(_mask_family())
def test_least_cover_is_the_first_minimal_cover_of_any_family(family):
    n, masks = family
    f = _first_least_cover(n, masks)
    if f is None:
        with pytest.raises(SoldensError, match="do not cover"):
            pt.least_cover(n, masks)
    else:
        assert pt.least_cover(n, masks) == f


@st.composite
def _family_and_covered(draw):
    n, masks = draw(_mask_family())
    return n, masks, draw(st.integers(0, (1 << n) - 1))


def _restrict(mask, points):
    """The mask over range(len(points)) whose bit i is the bit of points[i]."""
    return sum(1 << i for i, p in enumerate(points) if mask >> p & 1)


@settings(max_examples=400, deadline=None)
@given(_family_and_covered())
@example((3, [0b001], 0b110))  # covered points 1 and 2 lie in no mask: accepted
@example((3, [0b001], 0b100))  # free point 1 lies in no mask: refused
def test_least_cover_covers_only_the_points_outside_covered(case):
    n, masks, covered = case
    free = [p for p in range(n) if not covered >> p & 1]
    f = _first_least_cover(len(free), [_restrict(mask, free) for mask in masks])
    if f is None:
        with pytest.raises(SoldensError, match="do not cover"):
            pt.least_cover(n, masks, covered)
    else:
        assert pt.least_cover(n, masks, covered) == f


def _growth_partitions(n_elems, max_cells):
    """The partitions of range(n_elems) into <= max_cells cells from their
    restricted growth strings, recursively in lexicographic order, each as a
    tuple of cell masks ordered by least element."""

    def grow(assign, used):
        if len(assign) == n_elems:
            yield assign
            return
        for c in range(min(used + 1, max_cells)):
            yield from grow(assign + [c], max(used, c + 1))

    for assign in grow([], 0):
        cells = [0] * (max(assign) + 1)
        for i, c in enumerate(assign):
            cells[c] |= 1 << i
        yield tuple(cells)


def _stirling2(n, k):
    """Partitions of an n-set into exactly k nonempty cells."""
    row = [1] + [0] * k  # row[j] = S(m, j), starting at m = 0
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _antitone(weights):
    """c(A) = 1 + the sum of the weights of the points outside A: it can only
    fall as A grows, as cov(AA^-1) does."""
    return lambda a: 1 + sum(w for x, w in enumerate(weights) if not a >> x & 1)


@pytest.mark.parametrize("max_cells", [1, 2, 3, 4])
@pytest.mark.parametrize("n_elems", range(1, 9))
def test_first_partition_is_the_first_qualifying_growth_string(n_elems, max_cells):
    c = _antitone([(3 * x) % 4 for x in range(n_elems)])
    parts = list(_growth_partitions(n_elems, max_cells))
    floors = [min(map(c, part)) for part in parts]
    for least in range(max(floors) + 2):
        first = next((p for p, f in zip(parts, floors) if f >= least), None)
        assert pt._first_partition(n_elems, max_cells, c, least) == first
    assert pt._partition_count(n_elems, max_cells) == len(parts) == \
        sum(_stirling2(n_elems, k) for k in range(1, max_cells + 1))


def _check_scans(g, n, c, cover):
    """The three scans against brute force over every partition into <= n
    cells in growth-string order, where c(A) is the cov of AA^-1 that cover(A)
    returns: the max-min of c with its first attaining partition, and the first
    partition whose every cell has c > n."""
    parts = list(_growth_partitions(g.order, n))
    floors = [min(map(c, part)) for part in parts]
    worst = max(floors)
    cells = tuple(tuple(gr.GroupSubset(g, a).indices()) for a in parts[floors.index(worst)])
    for verify, bound in ((pt.verify_thm137, n), (pt.verify_thm139, pt.thm139_bound(n))):
        if worst > bound:
            with pytest.raises(SoldensError) as info:
                verify(g, n)
            assert str(info.value) == \
                f"partition {cells} has every cov(A A^-1) > {bound} on {g.label}"
        else:
            assert verify(g, n) == pt.PartitionVerdict(g.label, n, bound, True, len(parts),
                                                        cells, worst)
    hit = next((part for part, f in zip(parts, floors) if f > n), None)
    assert pt.protasov_search(g, n) == (None if hit is None else {
        "counterexample": [gr.GroupSubset(g, a).indices() for a in hit],
        "covs": [cover(a) for a in hit]})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [s for s in _SPECS if _GROUPS[s].order <= pt.MAX_SCAN_ORDER])
def test_scans_match_the_brute_force_oracle(spec, n):
    g = _GROUPS[spec]

    @functools.cache
    def cover(a):
        return pt.cov(g, gr.difference_set(g, gr.GroupSubset(g, a)))

    _check_scans(g, n, lambda a: cover(a)[0], cover)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SPECS), st.integers(1, 4), st.data())
def test_scans_match_the_oracle_under_any_antitone_cov(spec, n, data):
    # a stand-in for cov(D) that is antitone in D, so pruning stays exact, and
    # that can exceed the bounds: the failure and counterexample paths run
    g = _GROUPS[spec]
    weights = data.draw(st.lists(st.integers(0, 3), min_size=g.order, max_size=g.order))
    value = _antitone(weights)

    def standin(group, d):
        assert group is g
        return value(d.mask), tuple(x for x in g.elements() if not d.mask >> x & 1)

    def cover(a):
        return standin(g, gr.difference_set(g, gr.GroupSubset(g, a)))

    with mock.patch.object(pt, "cov", standin):
        _check_scans(g, n, lambda a: cover(a)[0], cover)
