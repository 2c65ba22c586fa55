"""Finitely supported probability measures with exact rational weights."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BAD_INPUT, SoldensError
from .groups import PATTERNS, Group, GroupSubset, subset, translate_masks


def _normalize(weights):
    """The sorted nonzero (point, Fraction) entries; the exact weights must sum to 1."""
    exact = {p: Fraction(w) for p, w in weights.items()}
    total = sum(exact.values(), Fraction(0))
    if total != 1:
        raise SoldensError(f"weights sum to {total}, not 1", kind=BAD_INPUT)
    items = tuple(sorted((p, w) for p, w in exact.items() if w != 0))
    if any(w < 0 for _, w in items):
        raise SoldensError("negative weight", kind=BAD_INPUT)
    return items


@dataclass(frozen=True)
class FinSuppMeasure:
    """Probability measure on a Group (or an abstract indexed point set when
    carrier is None). Structural equality holds after normalization. On a
    Group every point is an element index, by the rule of groups.subset."""

    carrier: Group | None
    entries: tuple  # sorted ((point, Fraction), ...), all weights > 0

    def __post_init__(self):
        if self.carrier is not None:
            subset(self.carrier, [p for p, _ in self.entries])

    def support(self):
        return [p for p, _ in self.entries]


def measure(carrier, weights):
    return FinSuppMeasure(carrier, _normalize(dict(weights)))


def dirac(x, carrier=None):
    return FinSuppMeasure(carrier, ((x, Fraction(1)),))


def uniform_on(points, carrier=None):
    if isinstance(points, GroupSubset):
        carrier = points.group
        points = points.indices()
    points = sorted(set(points))
    if not points:
        raise SoldensError("uniform_on requires a nonempty set", kind=BAD_INPUT)
    w = Fraction(1, len(points))
    return FinSuppMeasure(carrier, tuple((p, w) for p in points))


def haar_uniform(group):
    """Uniform measure on a finite group; the unique invariant measure."""
    return uniform_on(range(group.order), carrier=group)


def convolve(mu, nu):
    if mu.carrier is None or mu.carrier != nu.carrier:
        raise SoldensError("convolution requires a common group carrier", kind=BAD_INPUT)
    g = mu.carrier
    out = {}
    for a, wa in mu.entries:
        for b, wb in nu.entries:
            p = g.mul(a, b)
            out[p] = out.get(p, Fraction(0)) + wa * wb
    return measure(g, out)


def pushforward(hom, mu):
    if mu.carrier != hom.source:
        raise SoldensError("pushforward requires a measure on the map's source", kind=BAD_INPUT)
    out = {}
    for p, w in mu.entries:
        q = hom.apply(p)
        out[q] = out.get(q, Fraction(0)) + w
    return measure(hom.target, out)


def sup_translates(mu, a, pattern="two-sided"):
    """Maximum of mu over translates of A, with the lexicographically least
    maximizing translate pair.

    pattern: "two-sided" (xAy), "left" (xA), "right" (Ay). The weights are
    scaled once to ints over their common denominator, each translate sums
    ints, and one Fraction is built for the result.
    """
    g = mu.carrier
    if g is None:
        raise SoldensError("sup_translates requires a group carrier", kind=BAD_INPUT)
    if pattern not in PATTERNS:
        raise SoldensError(f"unknown pattern {pattern!r}", kind=BAD_INPUT)
    den = lcm(*(w.denominator for _, w in mu.entries))
    weights = [(p, w.numerator * (den // w.denominator)) for p, w in mu.entries]
    best = -1
    arg = None
    for translate, mask in translate_masks(g, a, pattern):
        v = sum(w for p, w in weights if mask >> p & 1)
        if v > best:
            best, arg = v, translate
    return Fraction(best, den), arg
