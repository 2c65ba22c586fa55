"""Finite groups as multiplication tables, with subset and translate algebra.

Elements are integer indices 0..order-1; index 0 is always the identity.
All values are immutable and shared freely: build_group builds each spec once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from math import factorial, prod

from .errors import BAD_INPUT, SIZE_GUARD, SoldensError

DEFAULT_ORDER_CAP = 64
MAX_SYMMETRIC_DEGREE = 5  # symmetric(n) refuses a larger n before n! is computed
MAX_CACHED_GROUPS = 64  # build_group's bound: order-1 factors admit infinitely many specs


class GroupError(SoldensError):
    pass


@dataclass(frozen=True)
class Violation:
    """First failing group axiom, with the witnessing indices."""

    axiom: str  # "identity" | "inverse" | "associativity" | "range"
    indices: tuple

    def __str__(self):
        return f"{self.axiom} violation at {self.indices}"


def validate_table(table):
    """Check the three group axioms on a square index table.

    Returns None if the table is a group table with identity 0, otherwise
    the lexicographically least Violation.
    """
    n = len(table)
    for g in range(n):
        if len(table[g]) != n:
            return Violation("range", (g,))
        for h in range(n):
            if not (0 <= table[g][h] < n):
                return Violation("range", (g, h))
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            return Violation("identity", (g,))
    for g in range(n):
        invs = [h for h in range(n) if table[g][h] == 0 and table[h][g] == 0]
        if len(invs) != 1:
            return Violation("inverse", (g,))
    # (ab)c == a(bc) for all c at once: row ab must equal row b relabelled by
    # row a; only a mismatching (a, b) is scanned for its least c
    rows = [list(row) for row in table]
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            if rows[ra[b]] != [ra[x] for x in rb]:
                c = next(c for c in range(n) if rows[ra[b]][c] != ra[rb[c]])
                return Violation("associativity", (a, b, c))
    return None


@dataclass(frozen=True)
class Group:
    order: int
    table: tuple  # tuple of row tuples, table[g][h] = g*h
    inverse: tuple
    label: str = ""

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse[g]

    def elements(self):
        return range(self.order)

    def conjugate(self, g, x):
        """g * x * g^-1"""
        return self.table[self.table[g][x]][self.inverse[g]]

    def __repr__(self):
        return f"Group({self.label or 'order ' + str(self.order)})"


def from_table(table, label=""):
    n = len(table)
    if n > DEFAULT_ORDER_CAP:
        raise GroupError(f"group order {n} exceeds cap {DEFAULT_ORDER_CAP}", kind=SIZE_GUARD)
    bad = validate_table(table)
    if bad is not None:
        raise GroupError(f"invalid table: {bad}", kind=BAD_INPUT)
    inverse = []
    for g in range(n):
        inverse.append(next(h for h in range(n) if table[g][h] == 0))
    return Group(n, tuple(tuple(row) for row in table), tuple(inverse), label)


def _check_order(kind, n):
    """The order of cyclic, dihedral or symmetric with parameter n; raises for a
    bad n or an order above DEFAULT_ORDER_CAP, before any table is built."""
    if kind == "cyclic":
        if n < 1:
            raise GroupError("cyclic order must be positive", kind=BAD_INPUT)
        order = n
    elif kind == "dihedral":
        if n < 1:
            raise GroupError("dihedral parameter must be positive", kind=BAD_INPUT)
        order = 2 * n
    else:
        if n < 1:
            raise GroupError(f"symmetric group supported for 1 <= n <= {MAX_SYMMETRIC_DEGREE}",
                             kind=BAD_INPUT)
        if n > MAX_SYMMETRIC_DEGREE:
            raise GroupError(f"group order {n}! exceeds cap {DEFAULT_ORDER_CAP}", kind=SIZE_GUARD)
        order = factorial(n)
    if order > DEFAULT_ORDER_CAP:
        raise GroupError(f"group order {order} exceeds cap {DEFAULT_ORDER_CAP}", kind=SIZE_GUARD)
    return order


def cyclic(n):
    _check_order("cyclic", n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return from_table(table, label=f"cyclic:{n}")


def dihedral(n):
    """Dihedral group of order 2n: rotations r^i (indices 0..n-1) then
    reflections s*r^i (indices n..2n-1)."""
    _check_order("dihedral", n)

    def mul(a, b):
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        # (s^fa r^ra)(s^fb r^rb) = s^(fa+fb) r^(rb + ra*(-1)^fb)
        f = (fa + fb) % 2
        r = (rb + (ra if fb == 0 else -ra)) % n
        return f * n + r

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return from_table(table, label=f"dihedral:{n}")


def symmetric(n):
    """Symmetric group on n letters, elements in lexicographic order of the
    permutation tuples (identity first)."""
    _check_order("symmetric", n)
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms]
        for p in perms
    ]
    return from_table(table, label=f"symmetric:{n}")


def direct_product(g1, g2):
    n1, n2 = g1.order, g2.order
    if n1 * n2 > DEFAULT_ORDER_CAP:
        raise GroupError("product order exceeds cap", kind=SIZE_GUARD)

    def mul(a, b):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return g1.mul(a1, b1) * n2 + g2.mul(a2, b2)

    table = [[mul(a, b) for b in range(n1 * n2)] for a in range(n1 * n2)]
    label = f"({g1.label})x({g2.label})"
    return from_table(table, label=label)


# _BYTE_BITS[b] is the tuple of the set bits of the byte b, ascending: adding
# bit k to each of the first 2^k entries gives the next 2^k
_BYTE_BITS = [()]
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


def _bits(mask):
    """The set bits of mask, ascending: one _BYTE_BITS lookup per byte."""
    out = list(_BYTE_BITS[mask & 255])
    base = 8
    mask >>= 8
    while mask:
        out += [base + i for i in _BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return out


def _mask(points):
    """The mask with the bit of each point set."""
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a group as an int bitmask: element g is a member when bit
    g of mask is set. The constructor checks the whole mask at once; subset()
    checks index by index."""

    group: Group
    mask: int = 0

    def __post_init__(self):
        m = self.mask
        if type(m) is not int or m < 0 or m >> self.group.order:
            raise GroupError(f"mask {m!r} is not a subset of a group of order {self.group.order}",
                             kind=BAD_INPUT)

    @property
    def members(self):
        """The members as a frozenset, built from the mask on each access."""
        return frozenset(_bits(self.mask))

    def __contains__(self, g):
        return isinstance(g, int) and g >= 0 and self.mask >> g & 1 == 1

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.indices())

    def indices(self):
        return _bits(self.mask)

    def union(self, other):
        return GroupSubset(self.group, self.mask | self._mask_of(other))

    def _mask_of(self, other):
        """other's mask, once other is a subset of a group equal by value to this one."""
        if other.group != self.group:
            raise GroupError("subsets of different groups", kind=BAD_INPUT)
        return other.mask

    def complement(self):
        return GroupSubset(self.group, ((1 << self.group.order) - 1) ^ self.mask)


def subset(group, indices):
    """The subset with the given element indices, each checked to be in range."""
    mask = 0
    for g in indices:
        if not (isinstance(g, int) and 0 <= g < group.order):
            raise GroupError(f"index {g} out of range", kind=BAD_INPUT)
        mask |= 1 << g
    return GroupSubset(group, mask)


PATTERNS = ("left", "right", "two-sided")


def _images(maps, members):
    """For each list m in maps, the mask of {m[q] : q in members}."""
    out = []
    for m in maps:
        mask = 0
        for q in members:
            mask |= 1 << m[q]
        out.append(mask)
    return out


def check_carrier(group, a):
    """Refuse a subset A of a group other than group, by identity first, then by value."""
    if a.group is not group and a.group != group:
        raise GroupError("subsets of different groups", kind=BAD_INPUT)


def translate_masks(group, a, pattern):
    """Every translate of A with its mask, as [(translate, mask)] in
    lexicographic order of the translate: (x,) for xA when pattern is "left",
    (y,) for Ay when "right", (x, y) for xAy when "two-sided"."""
    check_carrier(group, a)
    t = group.table
    members = a.indices()
    if pattern == "left":  # row x of the table maps q to xq
        return [((x,), mask) for x, mask in enumerate(_images(t, members))]
    columns = list(zip(*t))  # column y maps q to qy
    if pattern == "right":
        return [((y,), mask) for y, mask in enumerate(_images(columns, members))]
    if pattern == "two-sided":
        return [((x, y), mask) for x, row in enumerate(t)
                for y, mask in enumerate(_images(columns, [row[q] for q in members]))]
    raise GroupError(f"unknown pattern {pattern!r}", kind=BAD_INPUT)


def translate(group, a, x, y):
    """xAy as a GroupSubset."""
    check_carrier(group, a)
    t = group.table
    return GroupSubset(group, _mask(t[t[x][g]][y] for g in a))


def left_translate(group, x, a):
    return translate(group, a, x, 0)


def invert_set(group, a):
    check_carrier(group, a)
    return GroupSubset(group, _mask(group.inverse[g] for g in a))


def _product(group, left, right):
    """The mask of {gh : g in left, h in right} for two lists of indices."""
    t = group.table
    return _mask({t[g][h] for g in left for h in right})


def product_set(group, a, b):
    check_carrier(group, a)
    check_carrier(group, b)
    return GroupSubset(group, _product(group, a.indices(), b.indices()))


def difference_mask(group, mask):
    """The mask of AA^-1 for the subset A with the given mask, which is not checked."""
    members = _bits(mask)
    return _product(group, members, [group.inverse[g] for g in members])


def difference_table(group):
    """A function from a mask A to the mask of AA^-1 that remembers every mask
    it computes in a list of 2^|G| slots, filled only as masks are asked for.
    Each pair of points of S lies in S - x or in S - y, or is {x, y}, so for x
    and y the two lowest points of S, D[S] = D[S - x] | D[S - y] | {xy^-1, yx^-1}
    with D[{x}] = {e}: two lookups and one OR per new mask, and no |A|^2 product
    loop. A slot reads 0 until it is filled; AA^-1 holds e for every nonempty A."""
    t, inv = group.table, group.inverse
    memo = [0] * (1 << group.order)
    for x in range(group.order):
        memo[1 << x] = 1

    def diff(s):
        out = memo[s]
        if not out and s:
            bx = s & -s
            rest = s ^ bx
            by = rest & -rest
            x, y = bx.bit_length() - 1, by.bit_length() - 1
            out = memo[s] = ((memo[rest] or diff(rest)) | (memo[s ^ by] or diff(s ^ by))
                             | 1 << t[x][inv[y]] | 1 << t[y][inv[x]])
        return out

    return diff


def difference_set(group, a):
    """AA^-1"""
    check_carrier(group, a)
    return GroupSubset(group, difference_mask(group, a.mask))


def is_inner_invariant(group, a):
    check_carrier(group, a)
    members = a.indices()
    return all(_mask(group.conjugate(g, x) for x in members) == a.mask for g in group.elements())


def is_subgroup(group, h):
    """A subset holding the identity and closed under products: in a finite
    group that makes it closed under inverses too."""
    check_carrier(group, h)
    members = h.indices()
    return h.mask & 1 == 1 and _product(group, members, members) == h.mask


def subgroup_generated(group, s):
    """Breadth-first search from the identity, right-multiplying by each
    generator; in a finite group every inverse is a positive power."""
    check_carrier(group, s)
    if not s.mask:
        raise GroupError("cannot generate from an empty set", kind=BAD_INPUT)
    t, gens = group.table, s.indices()
    closure, queue = 1, [0]
    for g in queue:  # the queue grows while it is read
        for p in [t[g][x] for x in gens]:
            if not closure >> p & 1:
                closure |= 1 << p
                queue.append(p)
    return GroupSubset(group, closure)


def is_normal(group, n):
    return is_subgroup(group, n) and is_inner_invariant(group, n)


@dataclass(frozen=True)
class Homomorphism:
    source: Group
    target: Group
    mapping: tuple  # source index -> target index

    def apply(self, g):
        return self.mapping[g]

    def preimage(self, b):
        return GroupSubset(
            self.source, _mask(g for g in self.source.elements() if b.mask >> self.mapping[g] & 1)
        )


def quotient_map(group, n):
    """Quotient by a normal subgroup; coset representatives are least indices,
    sorted so that the identity coset gets index 0."""
    if not is_normal(group, n):
        raise GroupError("subgroup is not normal", kind=BAD_INPUT)
    # the cosets gN are the left translates of N; each is named by its least element
    least = [(mask & -mask).bit_length() - 1 for _, mask in translate_masks(group, n, "left")]
    reps = sorted(set(least))
    coset_of = tuple(reps.index(r) for r in least)
    table = [[coset_of[group.mul(r, s)] for s in reps] for r in reps]
    q = from_table(table, label=f"{group.label}/N{len(n)}")
    return Homomorphism(group, q, coset_of)


def _parse_factor(spec):
    """(constructor, n, order) of a spec without "*", its order checked."""
    spec = spec.strip().lower()
    if spec in ("s3", "s4", "s5"):
        kind, n = "symmetric", int(spec[1])
    elif spec in ("d4", "d3", "d5"):
        kind, n = "dihedral", int(spec[1])
    else:
        kind, _, arg = spec.partition(":")
        try:
            n = int(arg)
        except ValueError:
            raise GroupError(f"cannot parse group spec {spec!r}", kind=BAD_INPUT) from None
    build = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}.get(kind)
    if build is None:
        raise GroupError(f"unknown group kind {kind!r}", kind=BAD_INPUT)
    return build, n, _check_order(kind, n)


def build_group(spec):
    """Build a group from a short spec string.

    Formats: "cyclic:N", "dihedral:N", "symmetric:N", "s3"-style aliases, and
    products "A x B" written as "spec*spec", nested to the right. Each factor,
    left to right, and then the product are checked against DEFAULT_ORDER_CAP
    before any table is built; specs with equal factors share one Group, built once.
    """
    factors = [_parse_factor(part) for part in spec.split("*")]
    if prod(order for *_, order in factors) > DEFAULT_ORDER_CAP:
        raise GroupError("product order exceeds cap", kind=SIZE_GUARD)
    return _built(tuple((build, n) for build, n, _ in factors))


@lru_cache(maxsize=MAX_CACHED_GROUPS)
def _built(factors):
    groups = [build(n) for build, n in factors]  # factors first, then products from the right
    return reduce(lambda right, left: direct_product(left, right), reversed(groups))
