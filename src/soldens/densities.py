"""Invariant densities on finite groups: closed form, brute-force witness
search and bound certificates.

On a finite group all five density kinds collapse to |A|/|G|; the brute-force
search exists as an independent oracle for that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import groups as gr
from . import measures as ms
from .errors import BAD_INPUT, SIZE_GUARD, SoldensError


class DensityKind(Enum):
    SIGMA = "sigma"            # two-sided translates
    SIGMA_L = "sigma_l"        # left translates, measure witnesses
    SIGMA_CAP_L = "sigma_cap_l"  # left translates, uniform witnesses
    SIGMA_R = "sigma_r"        # right translates, measure witnesses
    SIGMA_CAP_R = "sigma_cap_r"  # right translates, uniform witnesses

    @property
    def pattern(self):
        return {
            DensityKind.SIGMA: "two-sided",
            DensityKind.SIGMA_L: "left",
            DensityKind.SIGMA_CAP_L: "left",
            DensityKind.SIGMA_R: "right",
            DensityKind.SIGMA_CAP_R: "right",
        }[self]


ALL_KINDS = tuple(DensityKind)

EXACT = "EXACT"

# density_bruteforce tries every nonempty witness F, 2^|G| - 1 of them. On
# the set {0} (Python 3.11.7 on a 2-vCPU Xeon VM) that took 0.006-0.011 s on
# cyclic:12 and 0.12-0.18 s on cyclic:16, and 8.5 s on cyclic:20 when it still
# built a Fraction per witness. The cap admits every group of order <= 16.
MAX_BRUTE_WITNESSES = 2 ** 16


def bounded(horizon):
    return f"BOUNDED({horizon})"


@dataclass(frozen=True)
class BoundCertificate:
    """A density bound with the witness that proves it.

    verified_sup must equal bound. The constructors of this module store the
    translate supremum they recompute from the witness;
    words.fgroup_nonsubadditivity_certificate recomputes none and stores the
    bound of its case analysis, cross-checked by enumeration up to check_len.
    """

    kind: DensityKind
    direction: str  # "upper" | "lower"
    bound: Fraction
    witness: ms.FinSuppMeasure
    scope: str  # EXACT or BOUNDED(L)
    verified_sup: Fraction

    def __post_init__(self):
        if self.verified_sup != self.bound:
            raise SoldensError("certificate bound differs from verified supremum")


def density_closed_form(group, a, kind=DensityKind.SIGMA):
    """|A|/|G|, exact; the same for every kind on a finite group."""
    assert isinstance(kind, DensityKind)
    gr.check_carrier(group, a)
    return Fraction(len(a), group.order)


def density_bruteforce(group, a, kind=DensityKind.SIGMA):
    """Minimum translate supremum over uniform witnesses F, every nonempty
    subset of G, enumerated by size then lexicographically.

    Counts in ints: F's supremum is its most hits in one translate over |F|,
    compared by cross-multiplying, and one Fraction is built for the result.
    Stops early once the provable finite-group optimum |A|/|G| is reached, so
    the returned witness is the (size, lex)-least minimizer.
    """
    gr.check_carrier(group, a)
    n = group.order
    candidates = 2 ** n - 1
    if candidates > MAX_BRUTE_WITNESSES:
        raise SoldensError(f"{candidates} witnesses exceed cap {MAX_BRUTE_WITNESSES}", kind=SIZE_GUARD)
    if not a.mask:
        return Fraction(0), (0,)
    translates = {mask for _, mask in gr.translate_masks(group, a, kind.pattern)}
    best_hits, best_size, best_f = 1, 0, None  # 1/0 lies above every ratio
    bits = [1 << p for p in range(n)]
    for size in range(1, n + 1):
        for f, f_mask in zip(combinations(range(n), size), map(sum, combinations(bits, size))):
            hits = max(map(int.bit_count, map(f_mask.__and__, translates)))
            if hits * best_size < best_hits * size:
                best_hits, best_size, best_f = hits, size, f
                if hits * n == len(a) * size:
                    return Fraction(hits, size), f
    return Fraction(best_hits, best_size), best_f


def certificate_from_witness(group, a, witness, kind=DensityKind.SIGMA):
    """Upper certificate from a witness measure or finite set on a finite
    group; the complete translate set makes the scope EXACT."""
    gr.check_carrier(group, a)
    if isinstance(witness, ms.FinSuppMeasure):
        if witness.carrier != group:
            raise SoldensError("witness carrier mismatch", kind=BAD_INPUT)
        mu = witness
    else:
        points = list(witness)
        if not points:
            raise SoldensError("empty witness", kind=BAD_INPUT)
        mu = ms.uniform_on(points, carrier=group)
    sup, _ = ms.sup_translates(mu, a, kind.pattern)
    return BoundCertificate(kind, "upper", sup, mu, EXACT, sup)


def combine_certificates(group, a, b, cert_a, cert_b):
    """Union certificate via the convolution of the two witnesses; the stored
    bound is the re-verified supremum, which may beat the sum."""
    if cert_a.kind != cert_b.kind or cert_a.kind != DensityKind.SIGMA:
        raise SoldensError("combination requires two sigma certificates", kind=BAD_INPUT)
    wa, wb = cert_a.witness, cert_b.witness
    if not (isinstance(wa, ms.FinSuppMeasure) and isinstance(wb, ms.FinSuppMeasure)):
        raise SoldensError("combination requires measure witnesses", kind=BAD_INPUT)
    if wa.carrier != group or wb.carrier != group:
        raise SoldensError("witness carrier mismatch", kind=BAD_INPUT)
    mu = ms.convolve(wa, wb)
    union = a.union(b)
    sup, _ = ms.sup_translates(mu, union, "two-sided")
    if sup > cert_a.bound + cert_b.bound:
        raise SoldensError("combined supremum exceeds the sum of bounds")
    return BoundCertificate(DensityKind.SIGMA, "upper", sup, mu, EXACT, sup)
