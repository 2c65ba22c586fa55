"""Finite groups as multiplication tables, with subset and translate algebra.

Elements are integer indices 0..order-1; index 0 is always the identity.
All values are immutable, so they can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial

DEFAULT_ORDER_CAP = 64


class GroupError(ValueError):
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
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

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        n = data["order"]
        flat = data["table"]
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        return from_table(table, label=data.get("label", ""))


def from_table(table, label="", order_cap=DEFAULT_ORDER_CAP):
    n = len(table)
    if n > order_cap:
        raise GroupError(f"group order {n} exceeds cap {order_cap}")
    bad = validate_table(table)
    if bad is not None:
        raise GroupError(f"invalid table: {bad}")
    inverse = []
    for g in range(n):
        inverse.append(next(h for h in range(n) if table[g][h] == 0))
    return Group(n, tuple(tuple(row) for row in table), tuple(inverse), label)


def _check_order(kind, n, order_cap):
    """Raise for a bad parameter of the group kind:n or an order above
    order_cap; called before any table is built."""
    if kind == "cyclic":
        if n < 1:
            raise GroupError("cyclic order must be positive")
        order = n
    elif kind == "dihedral":
        if n < 1:
            raise GroupError("dihedral parameter must be positive")
        order = 2 * n
    elif kind == "symmetric":
        if not 1 <= n <= 5:
            raise GroupError("symmetric group supported for 1 <= n <= 5")
        order = factorial(n)
    else:
        raise GroupError(f"unknown group kind {kind!r}")
    if order > order_cap:
        raise GroupError(f"group order {order} exceeds cap {order_cap}")


def cyclic(n):
    _check_order("cyclic", n, DEFAULT_ORDER_CAP)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return from_table(table, label=f"cyclic:{n}")


def dihedral(n):
    """Dihedral group of order 2n: rotations r^i (indices 0..n-1) then
    reflections s*r^i (indices n..2n-1)."""
    _check_order("dihedral", n, DEFAULT_ORDER_CAP)

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
    _check_order("symmetric", n, DEFAULT_ORDER_CAP)
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
        raise GroupError("product order exceeds cap")

    def mul(a, b):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return g1.mul(a1, b1) * n2 + g2.mul(a2, b2)

    table = [[mul(a, b) for b in range(n1 * n2)] for a in range(n1 * n2)]
    label = f"({g1.label})x({g2.label})"
    return from_table(table, label=label)


@dataclass(frozen=True)
class GroupSubset:
    group: Group
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for g in self.members:
            if not 0 <= g < self.group.order:
                raise GroupError(f"index {g} out of range")

    def __contains__(self, g):
        return g in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def indices(self):
        return sorted(self.members)

    def union(self, other):
        return GroupSubset(self.group, self.members | other.members)

    def intersect(self, other):
        return GroupSubset(self.group, self.members & other.members)

    def complement(self):
        return GroupSubset(self.group, frozenset(self.group.elements()) - self.members)


def subset(group, indices):
    return GroupSubset(group, frozenset(indices))


def translate(group, a, x, y):
    """xAy as a GroupSubset."""
    t = group.table
    return GroupSubset(group, frozenset(t[t[x][g]][y] for g in a.members))


def left_translate(group, x, a):
    t = group.table
    return GroupSubset(group, frozenset(t[x][g] for g in a.members))


def right_translate(group, a, y):
    t = group.table
    return GroupSubset(group, frozenset(t[g][y] for g in a.members))


def invert_set(group, a):
    return GroupSubset(group, frozenset(group.inverse[g] for g in a.members))


def product_set(group, a, b):
    t = group.table
    return GroupSubset(group, frozenset(t[g][h] for g in a.members for h in b.members))


def difference_set(group, a):
    """AA^-1"""
    return product_set(group, a, invert_set(group, a))


def conjugacy_class(group, x):
    return GroupSubset(group, frozenset(group.conjugate(g, x) for g in group.elements()))


def is_inner_invariant(group, a):
    return all(
        frozenset(group.conjugate(g, x) for x in a.members) == a.members
        for g in group.elements()
    )


def is_subgroup(group, h):
    m = h.members
    if 0 not in m:
        return False
    t = group.table
    return all(t[a][b] in m for a in m for b in m) and all(group.inverse[a] in m for a in m)


def subgroup_generated(group, s):
    if not s.members:
        raise GroupError("cannot generate from an empty set")
    closure = {0} | set(s.members) | {group.inverse[g] for g in s.members}
    frontier = list(closure)
    while frontier:
        g = frontier.pop()
        for h in list(closure):
            for p in (group.mul(g, h), group.mul(h, g)):
                if p not in closure:
                    closure.add(p)
                    frontier.append(p)
    return GroupSubset(group, frozenset(closure))


def index_of(group, h):
    if not is_subgroup(group, h):
        raise GroupError("index requires a subgroup")
    assert group.order % len(h) == 0  # Lagrange
    return group.order // len(h)


def is_normal(group, n):
    if not is_subgroup(group, n):
        return False
    return all(
        frozenset(group.conjugate(g, x) for x in n.members) == n.members
        for g in group.elements()
    )


@dataclass(frozen=True)
class Homomorphism:
    source: Group
    target: Group
    mapping: tuple  # source index -> target index

    def apply(self, g):
        return self.mapping[g]

    def preimage(self, b):
        return GroupSubset(
            self.source, frozenset(g for g in self.source.elements() if self.mapping[g] in b.members)
        )


def quotient_map(group, n):
    """Quotient by a normal subgroup; coset representatives are least indices,
    sorted so that the identity coset gets index 0."""
    if not is_normal(group, n):
        raise GroupError("subgroup is not normal")
    cosets = []
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        coset = frozenset(group.mul(g, x) for x in n.members)
        cosets.append(coset)
        seen |= coset
    reps = sorted(min(c) for c in cosets)
    rep_index = {r: i for i, r in enumerate(reps)}
    coset_of = {}
    for c in cosets:
        r = min(c)
        for g in c:
            coset_of[g] = rep_index[r]
    table = [
        [coset_of[group.mul(reps[i], reps[j])] for j in range(len(reps))]
        for i in range(len(reps))
    ]
    q = from_table(table, label=f"{group.label}/N{len(n)}")
    return Homomorphism(group, q, tuple(coset_of[g] for g in group.elements()))


def build_group(spec, order_cap=DEFAULT_ORDER_CAP):
    """Build a group from a short spec string.

    Formats: "cyclic:N", "dihedral:N", "symmetric:N", "s3"-style aliases,
    and products "A x B" written as "spec*spec". The order of a single group
    is checked against order_cap before its table is built; order_cap may
    lower the default cap but not raise it.
    """
    if order_cap > DEFAULT_ORDER_CAP:
        raise GroupError(
            f"order_cap {order_cap} exceeds the largest supported cap {DEFAULT_ORDER_CAP}"
        )
    spec = spec.strip().lower()
    if "*" in spec:
        left, right = spec.split("*", 1)
        g1, g2 = build_group(left, order_cap), build_group(right, order_cap)
        if g1.order * g2.order > order_cap:
            raise GroupError("product order exceeds cap")
        return direct_product(g1, g2)
    if spec in ("s3", "s4", "s5"):
        kind, n = "symmetric", int(spec[1])
    elif spec in ("d4", "d3", "d5"):
        kind, n = "dihedral", int(spec[1])
    elif ":" in spec:
        kind, arg = spec.split(":", 1)
        n = int(arg)
    else:
        raise GroupError(f"cannot parse group spec {spec!r}")
    _check_order(kind, n, order_cap)
    return {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}[kind](n)
