"""Additive combinatorics on eventually periodic subsets of the integers.

A ZSet is a union of residue classes modulo m, corrected by finite add and
remove patches. Everything density-flavored is exact (the patches never move
the upper Banach density); the interval estimator exists to validate the
closed form, not to define it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import partitions as pt
from .densities import EXACT, bounded
from .errors import BAD_INPUT, SIZE_GUARD, SoldensError


class ZSetError(SoldensError):
    pass


@dataclass(frozen=True)
class ZSet:
    m: int
    residues: frozenset
    add: frozenset
    remove: frozenset

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ZSetError(f"modulus must be an int >= 1, got {self.m!r}", kind=BAD_INPUT)
        if not all(type(r) is int and 0 <= r < self.m for r in self.residues):
            raise ZSetError(f"residues must lie in range({self.m})", kind=BAD_INPUT)
        if not all(type(x) is int for x in chain(self.add, self.remove)):
            raise ZSetError("patch points must be ints", kind=BAD_INPUT)

    def __contains__(self, x):
        if x in self.add:
            return True
        return x % self.m in self.residues and x not in self.remove

    def patch_span(self):
        pts = self.add | self.remove
        return max((abs(p) for p in pts), default=0)

    def is_periodic(self):
        return not self.add and not self.remove

    def is_finite(self):
        return not self.residues


def zset(m, residues, add=(), remove=()):
    """Normalized constructor: membership is computed from the raw data and
    the patches are re-derived, so equal sets get equal normal forms."""
    if m < 1:
        raise ZSetError("modulus must be >= 1", kind=BAD_INPUT)
    res = frozenset(r % m for r in residues)
    raw = ZSet(m, res, frozenset(add), frozenset(remove))
    pts = raw.add | raw.remove
    norm_add = frozenset(x for x in pts if x in raw and x % m not in res)
    norm_remove = frozenset(x for x in pts if x not in raw and x % m in res)
    return ZSet(m, res, norm_add, norm_remove)


Z_ALL = zset(1, (0,))
Z_EMPTY = zset(1, ())


def lift(a, new_m):
    if new_m % a.m != 0:
        raise ZSetError("can only lift to a multiple of the modulus", kind=BAD_INPUT)
    res = frozenset(r + k * a.m for r in a.residues for k in range(new_m // a.m))
    return ZSet(new_m, res, a.add, a.remove)


def _common(a, b):
    big = math.lcm(a.m, b.m)
    return lift(a, big), lift(b, big)


def z_union(a, b):
    """{x : x in a or x in b}; the union of the lifted residue sets is the
    periodic part, and the patch points are decided one by one."""
    la, lb = _common(a, b)
    pts = a.add | a.remove | b.add | b.remove
    add = {x for x in pts if x in a or x in b}
    return zset(la.m, la.residues | lb.residues, add, pts - add)


def z_shift(a, t):
    res = frozenset((r + t) % a.m for r in a.residues)
    return ZSet(a.m, res, frozenset(p + t for p in a.add), frozenset(p + t for p in a.remove))


def dstar(a):
    """Upper Banach density: the residue density, exactly. Patches are finite
    and cannot move it."""
    return Fraction(len(a.residues), a.m)


def folner_density(member, depth):
    """Interval estimate of the density of {x : member(x)} along F_n =
    [0, n), n = 1, ..., depth. Returns (estimate, trace); the estimate is the ratio
    at the deepest level and is a float on purpose: this op is the only
    approximate one in the module."""
    if depth < 1:
        raise ZSetError("depth must be >= 1", kind=BAD_INPUT)
    trace = []
    count = 0
    for n in range(1, depth + 1):
        if member(n - 1):
            count += 1
        trace.append((n, count, count / n))
    return trace[-1][2], trace


def _sum_residues(a, b, big):
    """Residues mod `big` of the periodic-plus-add-patch part of a + b."""
    g = math.gcd(a.m, b.m)
    res = set()
    for ra in a.residues:
        for rb in b.residues:
            base = (ra + rb) % g
            res.update(range(base, big, g))
    for p in a.add:
        res.update((p + rb) % b.m + k * b.m for rb in b.residues for k in range(big // b.m))
    for q in b.add:
        res.update((q + ra) % a.m + k * a.m for ra in a.residues for k in range(big // a.m))
    return frozenset(r % big for r in res)


def _sumset_member(a, b, x):
    """Decide x in a + b directly. Any representation through a residue class
    survives the finite removals, so a short scan suffices."""
    big = math.lcm(a.m, b.m)
    span = (len(a.remove) + len(b.remove) + 2) * big
    for p in a.add:
        if (x - p) in b:
            return True
    for q in b.add:
        if (x - q) in a:
            return True
    for y in range(x, x + span):
        if y in a and (x - y) in b:
            return True
    return False


def sumset(a, b):
    """(result, scope). Exact when both inputs are periodic; otherwise the
    claimed set is checked pointwise on [-H, H], H the larger patch span plus
    twice the common period, and the scope is downgraded to BOUNDED(H)."""
    big = math.lcm(a.m, b.m)
    res = _sum_residues(a, b, big)
    # Points whose only representations run through a patch can deviate from
    # the periodic picture; everything else has a residue-pair route and is
    # immune to finite removals.
    exceptional = {p + q for p in a.add for q in b.add}
    exceptional |= {p + r for p in a.add for r in b.remove}
    exceptional |= {r + q for r in a.remove for q in b.add}
    inside = {s for s in exceptional if _sumset_member(a, b, s)}
    claimed = zset(big, res, add=inside, remove=exceptional - inside)
    if a.is_periodic() and b.is_periodic():
        return claimed, EXACT
    h = max(a.patch_span(), b.patch_span()) + 2 * big
    for x in range(-h, h + 1):
        if (x in claimed) != _sumset_member(a, b, x):
            raise ZSetError(f"sumset window check failed at {x}")
    return claimed, bounded(h)


def delta_eps(a, eps):
    """Shifts x with d*(A intersect (x+A)) >= eps; depends on x mod m only.
    |R intersect (R + x)| counts the residue pairs (r, s) with r - s = x mod m,
    so the cost is |R|^2, whatever the modulus."""
    eps = Fraction(eps)
    if eps <= 0:
        return Z_ALL
    counts = Counter((r - s) % a.m for r in a.residues for s in a.residues)
    return zset(a.m, [x for x, c in counts.items() if c * eps.denominator >= eps.numerator * a.m])


def delta_ideal(a):
    """Shifts x with d*(A intersect (x+A)) > 0, as an exact periodic set."""
    return delta_eps(a, Fraction(1, a.m))


def thick_interval(a, length):
    """An explicit interval of the requested length inside A, or None."""
    if len(a.residues) < a.m:
        return None
    start = a.patch_span() + 1
    return (start, start + length)


def large_witness(a):
    """Finite F with F + A = Z, or None. A residue transversal shifted
    |remove| + 1 times survives every finite removal."""
    if not a.residues:
        return None
    r0 = min(a.residues)
    copies = len(a.remove) + 1
    return tuple(sorted(c - r0 + j * a.m for c in range(a.m) for j in range(copies)))


def _covers_z(f, a):
    """F + A = Z on all of Z, for A = add | ((R + mZ) - remove): the classes
    t + R, t in F, are OR-ed as rotated residue masks until they cover Z/m.
    Then x is missed only if each of the per[x mod m] shifts t with x - t in
    R + mZ has x - t removed (blocked[x] counts those) and none has x - t in
    add. blocked[x] >= per needs a class of F with no more shifts than there
    are removed points in R + mZ; only then are blocked and per counted."""
    m, full = a.m, (1 << a.m) - 1
    base = sum(1 << r for r in a.residues)
    base, covered = base | base << m, 0  # base >> (m - s) holds t + R for t = s mod m
    for t in f:
        covered |= base >> m - t % m
        if (covered & full) == full:
            break
    else:
        return False
    removed = [p for p in a.remove if p % m in a.residues]
    if not removed:
        return True
    f = set(f)  # the bound on blocked counts each shift once
    shifts = Counter(t % m for t in f)
    if min(shifts.values()) > len(removed):
        return True
    blocked = Counter(p + t for p in removed for t in f)
    per = {c: sum(shifts[(c - r) % m] for r in a.residues) for c in {x % m for x in blocked}}
    return all(any(x - t in a.add for t in f) for x, n in blocked.items() if n >= per[x % m])


def _check_witness_size(a):
    size = a.m * (len(a.remove) + 1)  # of the witnesses of classify and ergodic_sup_check
    if size > MAX_LARGE_WITNESS:
        raise ZSetError(f"large witness size {size} exceeds cap {MAX_LARGE_WITNESS}", kind=SIZE_GUARD)


def classify(a):
    """Thick / large / small verdict with explicit witnesses.

    Thick needs full residues; large needs any residue; small means the
    periodic part is empty, so F + A stays finite and never thick.
    """
    thick = len(a.residues) == a.m
    large = bool(a.residues)
    small = not large
    if large:
        _check_witness_size(a)
    f = large_witness(a)
    if f is not None and not _covers_z(f, a):
        raise ZSetError("large witness failed its cover check")
    return {
        "thick": thick,
        "large": large,
        "small": small,
        "thick_witness": thick_interval(a, 10) if thick else None,
        "large_witness": f,
    }


def _min_cover(m, base_residues):
    """Lexicographically least minimum set of shifts t with the translates
    t + base covering Z/m, for a nonempty base in range(m); callers check m.
    Shifting an optimal set by minus one of its own shifts gives an optimum
    that holds 0, so the first optimum is 0 and the first least cover of
    Z/m - base by the shifts 1..m-1."""
    base = sum(1 << r for r in base_residues)
    # the mask of t + base is the base mask rotated left by t places
    rotations = [(base << t | base >> (m - t)) & ((1 << m) - 1) for t in range(1, m)]
    return (0, *(t + 1 for t in pt.least_cover(m, rotations, base)))


def _check_cover_modulus(m):
    if m > MAX_COVER_MODULUS:
        raise ZSetError(f"cover modulus {m} exceeds cap {MAX_COVER_MODULUS}", kind=SIZE_GUARD)


def _ceil_reciprocal(q):
    """ceil(1/q) of a Fraction q > 0, in ints."""
    return -(-q.denominator // q.numerator)


def jin_witness(a, b):
    """Minimal F with F + A + B thick, with the density-product cardinality
    bound asserted."""
    da, db = dstar(a), dstar(b)
    if da == 0 or db == 0:
        raise ZSetError("jin witness needs positive densities", kind=BAD_INPUT)
    if not (a.is_periodic() and b.is_periodic()):
        raise ZSetError("jin witness needs exact sumsets (no add or remove patches)", kind=BAD_INPUT)
    _check_cover_modulus(math.lcm(a.m, b.m))  # the sumset's modulus, before the sumset is built
    s, scope = sumset(a, b)
    assert scope == EXACT
    f = _min_cover(s.m, s.residues)
    limit = _ceil_reciprocal(da * db)
    if len(f) > limit:
        raise ZSetError(f"cover size {len(f)} exceeds the density bound {limit}")
    shifted = Z_EMPTY
    for t in f:
        shifted = z_union(shifted, z_shift(s, t))
    if not classify(shifted)["thick"]:
        raise ZSetError("jin witness failed thickness")
    return {"f": f, "bound": limit, "sumset": s}


def lemma163_check(a, b):
    """Density sum above 1 forces a thick sumset."""
    da, db = dstar(a), dstar(b)
    if da + db <= 1:
        return {"applicable": False, "density_sum": da + db}
    s, scope = sumset(a, b)
    verdict = classify(s)
    if not verdict["thick"]:
        raise ZSetError("density sum exceeds 1 but the sumset is not thick")
    return {"applicable": True, "density_sum": da + db, "sumset": s,
            "scope": scope, "thick_witness": verdict["thick_witness"]}


def ergodic_sup_check(a):
    """sup over finite F of the density of F + A is 0 or 1; returns the value
    with a minimal witness F for the 1-case.

    The minimal |F| is reported against ceil(1/d*) but not asserted: shift
    covers by a sparse residue pattern can genuinely need more translates
    than the density reciprocal (residues {0, 1, 4} mod 9 need 4 > 3).
    """
    if a.is_finite():
        return {"value": 0, "f": None}
    _check_witness_size(a)
    _check_cover_modulus(a.m)
    f = _min_cover(a.m, a.residues)
    f = tuple(t + j * a.m for t in f for j in range(len(a.remove) + 1))
    if not _covers_z(f, a):
        raise ZSetError("ergodic witness failed its cover check")
    return {"value": 1, "f": f, "reciprocal_bound": _ceil_reciprocal(dstar(a))}


def bohr_congruence(m, residues):
    """Rational-frequency Bohr set on Z: a union of congruence classes."""
    if not residues:
        raise ZSetError("a nonempty Bohr set needs residues", kind=BAD_INPUT)
    return zset(m, residues)


def piecewise_bohr_check(a):
    """Decompose A above a congruence class: U = r + mZ, T = Z minus the
    removals; U intersect T sits inside A. A finite set has no such
    decomposition: for it the result is {"ok": False, "reason": ...}."""
    if not a.residues:
        return {"ok": False, "reason": "finite sets are not piecewise Bohr"}
    r = min(a.residues)
    u = bohr_congruence(a.m, [r])
    t = zset(1, (0,), remove=a.remove)
    span = a.patch_span() + 2 * a.m
    for x in range(-span, span + 1):
        if x in u and x in t and x not in a:
            raise ZSetError(f"Bohr decomposition leaks at {x}")
    return {"ok": True, "u": u, "t": t}


_PRIMES8 = (2, 3, 5, 7, 11, 13, 17, 19)
# The sieve costs about 9 bytes per integer up to verify_horizon + n_k. The cap
# still admits k_max = 8: its window period n_8 = 9 699 690 must fit in the horizon.
MAX_VERIFY_HORIZON = 10 ** 7
# _min_cover is exponential in the modulus. On 200 random bases of 2 to 6
# residues mod 32 (Python 3.11.7 on a 2-vCPU Xeon VM) the slowest took 0.15 to
# 0.18 s, {3, 5, 21, 25} 0.07 s and the sparse {0, 12, 16} 0.007 s; mod 40 the
# slowest of 20 took 6.0 to 6.9 s, almost all in the phase that walks to the
# first optimum, a sample too small to admit 40. partitions.cov runs the same
# kernel under the same cap.
MAX_COVER_MODULUS = pt.MAX_COVER_POINTS
# The witnesses of classify and ergodic_sup_check hold m * (|remove| + 1)
# shifts, |remove| + 1 in each of their classes, so _covers_z rotates the
# residue mask at most once per shift and never counts blocked points for them.
# At the cap (Python 3.11.7 on a 2-vCPU Xeon VM) classify took 0.5 ms on all
# residues mod 1000, 0.4 ms on {0} mod 1000 and 0.5 ms on Z minus 999 points.
MAX_LARGE_WITNESS = 1000
# A search for k generators in [1, bound] that exhausts its space tests
# membership sum_i C(bound, i) 2^(i-1) times, i <= k; the CLI default, k = 3
# and bound 100, needs 656 800. At the cap, for each k <= 12 at its largest
# bound, on residue sets mod 2 to 8 and on [1, k(k+1)/2 - 1] (same machine),
# the slowest took 0.36 s: k = 1, bound 10^6, on the empty set.
MAX_IP_TESTS = 10 ** 6
MAX_IP_GENERATORS = 20  # the cap on k, checked before that count, which loops k times


def _sieve(limit):
    import numpy as np

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_bound_table(k_max, verify_horizon=10 ** 6):
    """Primorial density bounds for the primes, with an empirical sieve check
    that no length-n_k window ever holds more than k + 2*phi(n_k) primes."""
    import numpy as np

    if k_max < 1:
        raise ZSetError("k_max must be >= 1", kind=BAD_INPUT)
    if k_max > len(_PRIMES8):
        raise ZSetError(f"k_max {k_max} exceeds cap {len(_PRIMES8)}", kind=SIZE_GUARD)
    if verify_horizon > MAX_VERIFY_HORIZON:
        raise ZSetError(f"horizon {verify_horizon} exceeds cap {MAX_VERIFY_HORIZON}", kind=SIZE_GUARD)
    horizon_needed = math.prod(_PRIMES8[:k_max])
    if verify_horizon < horizon_needed:
        raise ZSetError("horizon too small to cover one full window period", kind=BAD_INPUT)
    flags = _sieve(verify_horizon + horizon_needed)
    counts = np.concatenate(([0], np.cumsum(flags.astype(np.int64))))
    rows = []
    n = 1
    phi = 1
    prev_bound = None
    for k in range(1, k_max + 1):
        p = _PRIMES8[k - 1]
        n *= p
        phi *= p - 1
        expected = Fraction(1)
        for q in _PRIMES8[:k]:
            expected *= Fraction(q - 1, q)
        if Fraction(phi, n) != expected:
            raise ZSetError("totient product identity failed")
        bound = Fraction(k + 2 * phi, n)
        if k >= 3 and not bound < prev_bound:
            raise ZSetError("bound sequence stopped decreasing")
        prev_bound = bound
        # max over y < horizon of primes in the window (y, y + n_k]
        window = counts[n : n + verify_horizon] - counts[:verify_horizon]
        empirical = int(window.max())
        if empirical > k + 2 * phi:
            raise ZSetError(f"empirical window count {empirical} beats the bound at k={k}")
        rows.append({"k": k, "n_k": n, "phi": phi, "bound": bound, "empirical_max": empirical})
    return rows


def ip_witness_search(member, k, bound):
    """Generators x1 < ... < xk in [1, bound] whose finite subset-sums all lie
    in the set, found depth-first; None means the search space is exhausted,
    not a nonexistence proof."""
    if k < 1:
        raise ZSetError("k must be >= 1", kind=BAD_INPUT)
    if k > MAX_IP_GENERATORS:
        raise ZSetError(f"k {k} exceeds cap {MAX_IP_GENERATORS}", kind=SIZE_GUARD)
    # each i-subset of [1, bound], C(bound, i) = c of them, is tried at most once,
    # with 2^(i-1) membership tests
    n, c, tests = max(bound, 0), 1, 0
    for i in range(1, k + 1):
        c = c * (n + 1 - i) // i
        tests += c << (i - 1)
    if tests > MAX_IP_TESTS:
        raise ZSetError(f"k {k} and bound {bound} allow {tests} membership tests, "
                        f"above cap {MAX_IP_TESTS}", kind=SIZE_GUARD)
    if not callable(member):
        zs = member
        member = lambda x: x in zs

    def extend(gens, sums, lo):
        if len(gens) == k:
            return gens
        for x in range(lo, bound + 1):
            if not member(x):
                continue
            if all(member(s + x) for s in sums):
                found = extend(gens + [x], sums + [s + x for s in sums] + [x], x + 1)
                if found:
                    return found
        return None

    found = extend([], [], 1)
    if found is None:
        return {"found": None, "exhausted_bound": bound}
    return {"found": tuple(found), "exhausted_bound": None}
