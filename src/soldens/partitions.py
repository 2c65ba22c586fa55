"""Covering numbers, packing indices, partition theorems, the odd-group
characterization, and iterated difference-set subgroups on small finite
groups. Everything exact; sizes are guarded, not truncated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import groups as gr
from .errors import BAD_INPUT, SIZE_GUARD, SoldensError


def least_cover(n, translates, covered=0):
    """The first minimum-size cover of the points of range(n) outside the mask
    covered by the given masks, as the tuple of their indices in
    itertools.combinations order. cov and zline._min_cover pass the masks of
    every translate but A itself, with covered = A: translating an optimal F
    by f^-1, for one of its own f, gives an optimum that holds the identity,
    and such an optimum comes first in combinations order.

    Two exact phases, both pruned by need(free), a lower bound on the masks
    still needed: a greedy count of uncovered points that pairwise share no
    mask, each of which needs a mask of its own. Phase 1 finds the minimum
    size by branch and bound on the least uncovered point, pruning every node
    that cannot beat the best size found, so ties are never enumerated; it
    branches once per distinct gain on the free points, and not on a gain
    that lies inside another.
    Phase 2 walks index tuples of that size in combinations order and returns
    the first cover; it also stops once a free point has no mask left at or
    above the next index (dead[c]), and skips masks that cover nothing new,
    which no minimum cover holds.
    """
    full = (1 << n) - 1
    covering = [[] for _ in range(n)]  # covering[p]: the distinct masks that cover p
    reach = [0] * n  # reach[p]: every point that shares a mask with p
    for mask in set(translates):
        rest = mask & full & ~covered
        while rest:
            p = (rest & -rest).bit_length() - 1
            covering[p].append(mask)
            reach[p] |= mask
            rest &= rest - 1
    if any(not covering[p] for p in range(n) if not covered >> p & 1):
        raise SoldensError("the masks do not cover")

    def need(free):
        count = 0
        while free:
            free &= ~reach[(free & -free).bit_length() - 1]
            count += 1
        return count

    best = n + 1  # one mask per point always covers

    def smallest(depth, covered):
        nonlocal best
        free = full ^ covered
        if not free:
            best = depth
        elif depth + need(free) < best:
            masks = covering[(free & -free).bit_length() - 1]
            if depth + 2 == best:  # one more mask must cover every free point
                if any(g & free == free for g in masks):
                    best = depth + 1
                return
            # only the size matters here, so a mask whose gain on the free
            # points lies inside another's is never worth a branch
            gains = {g & free for g in masks}
            for g in gains:
                if not any(g != h and g & h == g for h in gains):
                    smallest(depth + 1, covered | g)

    smallest(0, covered & full)
    k = len(translates)
    dead = [full] * (k + 1)  # dead[c]: the points no mask at index >= c covers
    for c in range(k - 1, -1, -1):
        dead[c] = dead[c + 1] & ~translates[c]

    def first(start, left, covered):
        free = full & ~covered
        if not free:
            return ()
        if need(free) > left:
            return None
        for c in range(start, k - left + 1):
            if free & dead[c]:
                return None
            if translates[c] & free:
                rest = first(c + 1, left - 1, covered | translates[c])
                if rest is not None:
                    return (c,) + rest
        return None

    return first(0, best, covered)


# The order cap of cov and zline._min_cover: least_cover is exponential in the
# number of points it covers (timings in README.md).
MAX_COVER_POINTS = 32
MAX_PACK_ORDER = 24  # of pack, whose branch and bound is exponential in |G|
# The order caps of _scan (which also caps the cells), verify_prop122 and
# odd_group_check; each bounds the 2^|G| slots of the difference table read.
MAX_SCAN_CELLS, MAX_SCAN_ORDER, MAX_PROP122_ORDER, MAX_ODD_CHECK_ORDER = 4, 8, 10, 16


def cov(group, a):
    """(minimal |F| with F*A = G, lexicographically least optimal F), by
    least_cover over the left translates xA. The family is left-invariant, so
    some optimum holds the identity (index 0) and the first one does: F is 0
    and the first least cover of G - A by the other translates. The partition
    scans (_scan) and verify_prop122 call it once per distinct AA^-1, read from
    a groups.difference_table; both tables live for one call of theirs only."""
    gr.check_carrier(group, a)
    if not a.mask:
        raise SoldensError("cov of an empty set", kind=BAD_INPUT)
    if group.order > MAX_COVER_POINTS:
        raise SoldensError(f"cov guarded to |G| <= {MAX_COVER_POINTS}", kind=SIZE_GUARD)
    masks = [mask for _, mask in gr.translate_masks(group, a, "left")]
    f = (0, *(x + 1 for x in least_cover(group.order, masks[1:], masks[0])))
    return len(f), f


def pack(group, a):
    """(maximal number of pairwise disjoint translates xA, lexicographically
    least optimal E). xA meets yA exactly when y is in x*AA^-1, so the result
    depends on AA^-1 alone. Include-first branch and bound on int masks, in
    the branch that holds the identity (index 0) only: f^-1 E is an optimum
    that holds it, for any optimal E and f in E, so the branch that excludes
    it never finds a larger packing."""
    gr.check_carrier(group, a)
    if not a.mask:
        raise SoldensError("pack of an empty set", kind=BAD_INPUT)
    if group.order > MAX_PACK_ORDER:
        raise SoldensError(f"pack guarded to |G| <= {MAX_PACK_ORDER}", kind=SIZE_GUARD)
    d = gr.GroupSubset(group, gr.difference_mask(group, a.mask))
    conflict = [mask & ~(1 << x) for (x,), mask in gr.translate_masks(group, d, "left")]
    best = ()

    def search(chosen, candidates):
        nonlocal best
        if len(chosen) + candidates.bit_count() <= len(best):
            return
        if not candidates:
            best = chosen  # the prune lets no tie get here
            return
        x = (candidates & -candidates).bit_length() - 1
        rest = candidates ^ (1 << x)
        search(chosen + (x,), rest & ~conflict[x])
        search(chosen, rest)

    search((0,), ((1 << group.order) - 2) & ~conflict[0])
    return len(best), best


def verify_prop122(group):
    """cov(AA^-1) <= pack(A) <= floor(|G|/|A|) for every nonempty A."""
    if group.order > MAX_PROP122_ORDER:
        raise SoldensError(f"exhaustive subsets guarded to |G| <= {MAX_PROP122_ORDER}",
                           kind=SIZE_GUARD)
    tight, diff = [], gr.difference_table(group)
    solved = {}  # mask of AA^-1 -> (cov(AA^-1), pack(A)); both depend on AA^-1 alone
    for bits in range(1, 2 ** group.order):
        d = diff(bits)
        if d not in solved:
            solved[d] = (cov(group, gr.GroupSubset(group, d))[0],
                         pack(group, gr.GroupSubset(group, bits))[0])
        c, p = solved[d]
        cap = group.order // bits.bit_count()
        if not c <= p <= cap:
            raise SoldensError(f"chain broken on {gr.GroupSubset(group, bits).indices()}: "
                               f"cov={c}, pack={p}, cap={cap}")
        if p == cap and cap > 1:
            tight.append((gr.GroupSubset(group, bits).indices(), c, p, cap))
    return {"group": group.label, "checked": 2 ** group.order - 1, "tight": tight}


def thm139_bound(n):
    """max over 1 <= k <= n of sum_{i=0}^{n-k} k^i."""
    return max(sum(k ** i for i in range(n - k + 1)) for k in range(1, n + 1))


def _first_partition(order, n, c, least):
    """The first partition of range(order) into <= n cells, in restricted growth string
    order (Knuth, TAOCP 4A, 7.2.1.5), whose every cell A has c(A) >= least, as cell masks
    by least element, or None. Element k goes into each cell, then a new one. c must be
    antitone (c(B) <= c(A) for A within B), so a cell below least is never grown."""
    if n == 1:  # the one partition is range(order) itself: no partial cell needs its c
        return ((1 << order) - 1,) if c((1 << order) - 1) >= least else None

    def grow(k, cells):
        if k == order:
            return cells
        bit = 1 << k
        for i, cell in enumerate(cells + ((0,) if len(cells) < n else ())):  # 0: a new cell
            cell |= bit
            if c(cell) >= least and (found := grow(k + 1, cells[:i] + (cell,) + cells[i + 1:])):
                return found
        return None

    return grow(0, ())


def _partition_count(n_elems, max_cells):
    """How many partitions of range(n_elems) have <= max_cells cells: sum of S(n_elems, k)."""
    row = [1] + [0] * max_cells  # row[k] = S(m, k), from m = 0
    for _ in range(n_elems):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, max_cells + 1)]
    return sum(row)


@dataclass(frozen=True)
class PartitionVerdict:
    group_label: str
    cells_max: int
    bound: int
    passed: bool
    partitions_checked: int
    worst_partition: tuple  # cells as index tuples
    worst_best_cov: int


def _scan(group, n):
    """c(A) = cov(AA^-1) and cov's result for A, memoized per mask and solved once per AA^-1,
    after the caps on n and |G|. c is antitone: AA^-1 lies within BB^-1 when A lies within B."""
    if n < 1:
        raise SoldensError("cell count must be >= 1", kind=BAD_INPUT)
    if n > MAX_SCAN_CELLS or group.order > MAX_SCAN_ORDER:
        raise SoldensError(
            f"partition scan guarded to n <= {MAX_SCAN_CELLS}, |G| <= {MAX_SCAN_ORDER}",
            kind=SIZE_GUARD)
    solved, diff = {}, gr.difference_table(group)  # mask of AA^-1 -> cov(AA^-1)

    def cover(a):
        d = diff(a)
        if d not in solved:
            solved[d] = cov(group, gr.GroupSubset(group, d))
        return solved[d]

    return functools.cache(lambda a: cover(a)[0]), cover


def _verify_partition_bound(group, n, bound_of):
    # bound_of(n) only after _scan's caps; each search lifts the floor past the last hit's
    # least c, so the last hit is the first max-min
    c, _ = _scan(group, n)
    bound = bound_of(n)
    found = ((1 << group.order) - 1,)  # one cell: the first partition in growth-string order
    while found is not None:
        part, worst_val = found, min(map(c, found))
        found = _first_partition(group.order, n, c, worst_val + 1)
    worst = tuple(tuple(gr.GroupSubset(group, a).indices()) for a in part)
    if worst_val > bound:
        raise SoldensError(f"partition {worst} has every cov(A A^-1) > {bound} on {group.label}")
    return PartitionVerdict(group.label, n, bound, True, _partition_count(group.order, n),
                            worst, worst_val)


def verify_thm137(group, n):
    return _verify_partition_bound(group, n, lambda n: n)


def verify_thm139(group, n):
    return _verify_partition_bound(group, n, thm139_bound)


def protasov_search(group, n):
    """Hunt for a partition where every cell has cov(A A^-1) > n. Expected
    empty on finite groups; a hit would be a loud surprise worth publishing,
    so it is returned with full certificates instead of raising."""
    c, cover = _scan(group, n)
    part = _first_partition(group.order, n, c, n + 1)
    return None if part is None else {
        "counterexample": [gr.GroupSubset(group, a).indices() for a in part],
        "covs": [cover(a) for a in part]}


def is_odd_group(group):
    """Every element has odd order."""
    for g in group.elements():
        k, x = 1, g
        while x != 0:
            x = group.mul(x, g)
            k += 1
        if k % 2 == 0:
            return False
    return True


def odd_group_check(group):
    """Oddness is equivalent to: every 2-partition has a cell whose
    difference set is the whole group. Checked exhaustively, on an AA^-1
    table that fills as the loop goes, so an early witness stops it early."""
    if group.order > MAX_ODD_CHECK_ORDER:
        raise SoldensError(f"2-partition scan guarded to |G| <= {MAX_ODD_CHECK_ORDER}",
                           kind=SIZE_GUARD)
    odd = is_odd_group(group)
    witness = None
    full, diff = (1 << group.order) - 1, gr.difference_table(group)
    # bits stays below 2^(|G|-1), so the last element is always in the complement
    for bits in range(1, 2 ** (group.order - 1)):
        if diff(bits) != full and diff(full ^ bits) != full:
            witness = tuple(gr.GroupSubset(group, a).indices() for a in (bits, full ^ bits))
            break
    property_holds = witness is None
    if odd != property_holds:
        raise SoldensError(
            f"oddness ({odd}) disagrees with the partition property ({property_holds})"
        )
    return {"group": group.label, "odd": odd, "property_holds": property_holds, "witness": witness}


def difference_power_subgroup(group, a, n):
    """Iterate D -> D*D from D = A A^-1 until stable; for |A|/|G| >= 1/n the
    limit is a subgroup of index <= n reached at exponent <= 4^(n-1)."""
    gr.check_carrier(group, a)
    if n < 1 or not a.mask or len(a) * n < group.order:
        raise SoldensError("density precondition |A|/|G| >= 1/n violated", kind=BAD_INPUT)
    d = diff = gr.difference_set(group, a)
    exponent = 1
    while True:
        nxt = gr.product_set(group, d, d)
        if nxt == d:
            break
        d = nxt
        exponent *= 2
    if exponent.bit_length() > 2 * n - 1:
        raise SoldensError(f"stabilized only at exponent {exponent}")
    if not gr.is_subgroup(group, d):
        raise SoldensError("stabilized set is not a subgroup")
    assert group.order % len(d) == 0  # Lagrange
    index = group.order // len(d)
    if index > n:
        raise SoldensError(f"index {index} exceeds {n}")
    closure = gr.subgroup_generated(group, diff)
    if closure != d:
        raise SoldensError("stabilized set differs from the generated subgroup")
    return d, exponent, index


def thm43_search(group, a):
    """cov-optimal F for A A^-1 with the density cardinality bound."""
    gr.check_carrier(group, a)
    if not a.mask:
        raise SoldensError("empty set", kind=BAD_INPUT)
    size, f = cov(group, gr.difference_set(group, a))
    cap = group.order // len(a)
    if size > cap:
        raise SoldensError(f"|F| = {size} exceeds the density bound {cap}")
    return {"f": f, "size": size, "cap": cap, "tight": size == cap}
