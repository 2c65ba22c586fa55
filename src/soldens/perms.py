"""Finitely supported permutations of the natural numbers and the
conjugation trick that pushes any finite set of them into a prescribed
infinite target domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count

from .errors import BAD_INPUT, SoldensError, reading


class PermError(SoldensError):
    pass


@dataclass(frozen=True)
class FinSuppPermutation:
    """Identity off a finite domain; mapping stored only on non-fixed points."""

    mapping: tuple  # sorted ((x, f(x)), ...) with f(x) != x

    def __call__(self, x):
        for a, b in self.mapping:
            if a == x:
                return b
        return x

    def support(self):
        return tuple(a for a, _ in self.mapping)

    def __repr__(self):
        return f"perm({dict(self.mapping)})"

    def cycles(self):
        seen = set()
        out = []
        for a, _ in self.mapping:
            if a in seen:
                continue
            cyc = [a]
            seen.add(a)
            x = self(a)
            while x != a:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)

    @staticmethod
    def from_json(text):
        mapping = {}
        with reading("permutation JSON", PermError):
            for cyc in json.loads(text)["cycles"]:
                for i, x in enumerate(cyc):
                    if x in mapping:
                        raise ValueError(f"point {x!r} is named twice")
                    mapping[x] = cyc[(i + 1) % len(cyc)]
        if not all(type(x) is int for x in mapping):
            raise PermError("points must be natural numbers", kind=BAD_INPUT)
        return perm(mapping)


def perm(mapping):
    mapping = {x: y for x, y in dict(mapping).items() if x != y}
    if sorted(mapping) != sorted(mapping.values()):
        raise PermError("mapping is not a bijection on its support", kind=BAD_INPUT)
    if any(x < 0 for x in mapping):
        raise PermError("points must be natural numbers", kind=BAD_INPUT)
    return FinSuppPermutation(tuple(sorted(mapping.items())))


IDENTITY = perm({})


def perm_conjugate(f, g):
    """f g f^-1, built as the relabelling f(x) -> f(g(x)) of supp(g); its
    support is the f-image of supp(g)."""
    fm = dict(f.mapping)
    result = perm({fm.get(x, x): fm.get(y, y) for x, y in g.mapping})
    expected = tuple(sorted(fm.get(x, x) for x, _ in g.mapping))
    if result.support() != expected:
        raise PermError("conjugation support identity failed")
    return result


@dataclass(frozen=True)
class TargetPattern:
    """An infinite target domain with decidable membership: either the
    cofinite tail {x >= start} or the residue class {x : x = r (mod m)}."""

    kind: str  # "tail" | "residue"
    start: int = 0
    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        if self.kind not in ("tail", "residue"):
            raise PermError(f"unknown pattern kind {self.kind!r}", kind=BAD_INPUT)
        if self.modulus < 1:
            raise PermError("modulus must be >= 1", kind=BAD_INPUT)
        # One normal form, so membership and enumeration agree on the class.
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __contains__(self, x):
        if self.kind == "tail":
            return x >= self.start
        return x >= 0 and x % self.modulus == self.residue

    def enumerate(self):
        if self.kind == "tail":
            return count(self.start)
        return count(self.residue, self.modulus)


def tail(start):
    return TargetPattern("tail", start=start)


def residue_class(r, m):
    return TargetPattern("residue", modulus=m, residue=r)


def conjugation_witness(perms, target):
    """A finitely supported f with supp(f s f^-1) inside the target for every
    s in the given set, built by injecting the joint support into the target
    and pairing off the displaced points."""
    joint = sorted(set().union(*(set(s.support()) for s in perms)) if perms else set())
    if not joint:
        return {"f": IDENTITY, "conjugates": list(perms)}
    if all(x in target for x in joint):
        f = IDENTITY
    else:
        taken = set(joint)
        images = []
        gen = target.enumerate()
        while len(images) < len(joint):
            c = next(gen)
            if c not in taken:
                images.append(c)
        # the images avoid the joint support, so closing the injection up
        # into a permutation sends each image back to its one preimage
        mapping = dict(zip(joint, images))
        mapping.update(zip(images, joint))
        f = perm(mapping)
    conjugates = []
    for s in perms:
        c = perm_conjugate(f, s)
        if not all(x in target for x in c.support()):
            raise PermError("conjugate escaped the target domain")
        if len(c.support()) != len(s.support()):
            raise PermError("conjugation changed the support size")
        conjugates.append(c)
    return {"f": f, "conjugates": conjugates}
