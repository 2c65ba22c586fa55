"""The free group on two generators as reduced words over {a, A, b, B}
(capital = inverse), with the structural right-density certificates for the
class-A / class-B partition and its non-subadditivity exhibit.

Trust boundary: the public ``ReducedWord(...)`` constructor and ``word()``
validate (letters, reducedness, the ``MAX_WORD_LEN`` cap). The internal
builders (``word_multiply``, ``_prefix_decompose``, the bulk wrap
``_trusted_all`` that ``all_reduced_words`` applies once to its letter
strings, and the ``_POWERS`` table of generator powers built at import) make
words that are reduced by construction and skip validation. ``word_multiply``
cancels only at the junction, which for two reduced words is the whole free
reduction, returns ``u + v`` at once when the junction does not cancel, checks
the cap, and allocates its result itself rather than through ``_trusted``, one
call fewer per product. ``_prefix_decompose`` returns its argument as the rest
when nothing is stripped; the free-group count calls it only for a word that
starts with gen^-1, and decides every other word on its first letter alone,
building no word for it.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from . import densities as dn
from . import measures as ms
from .errors import BAD_INPUT, SIZE_GUARD, SoldensError

MAX_WORD_LEN = 64
MAX_CHECK_LEN = 10  # fgroup certificate enumerates 2*3^check_len words
# cross-check products of one fgroup certificate, 2*n*(2*3^check_len - 1);
# at the cap, n = 4 with check_len = 10 (944 776 products) took 0.66 s and
# n = 38 with check_len = 8 (997 196) 0.57 s on a 2-vCPU Xeon VM, Python 3.11.7
MAX_CERT_PRODUCTS = 10 ** 6

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
# letters that may follow the last letter of a reduced word, in ascending order
_NEXT = {x: "".join(c for c in "ABab" if c != _INV.get(x)) for x in ("", *_INV)}


def _too_long():
    return SoldensError(f"word length exceeds cap {MAX_WORD_LEN}", kind=SIZE_GUARD)


@dataclass(frozen=True, slots=True)
class ReducedWord:
    letters: str

    def __post_init__(self):
        for c in self.letters:
            if c not in _INV:
                raise SoldensError(f"bad letter {c!r}", kind=BAD_INPUT)
        for x, y in zip(self.letters, self.letters[1:]):
            if _INV[x] == y:
                raise SoldensError(f"not reduced at {x}{y}", kind=BAD_INPUT)
        if len(self.letters) > MAX_WORD_LEN:
            raise _too_long()

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters or "e"


_set_letters = ReducedWord.letters.__set__  # the slot setter, bypassing frozen
_new = object.__new__


def _trusted(letters):
    """A ReducedWord without validation, for letters that are reduced and
    within MAX_WORD_LEN by construction."""
    w = _new(ReducedWord)
    _set_letters(w, letters)
    return w


def _trusted_all(strings):
    """_trusted over a list, with the allocation and the slot writes done in
    C-level map loops. A word holds one str and can close no reference cycle,
    so the cyclic collector is paused meanwhile; left running, it re-traverses
    the growing list and took about 60 % of all_reduced_words(12)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        words = list(map(_new, repeat(ReducedWord, len(strings))))
        deque(map(_set_letters, words, strings), 0)
    finally:
        if enabled:
            gc.enable()
    return words


def word(text):
    """Free reduction of an arbitrary letter string."""
    out = []
    for c in text:
        if c not in _INV:
            raise SoldensError(f"bad letter {c!r}", kind=BAD_INPUT)
        if out and _INV[out[-1]] == c:
            out.pop()
        else:
            out.append(c)
    if len(out) > MAX_WORD_LEN:
        raise _too_long()
    return _trusted("".join(out))


EMPTY = word("")


def word_multiply(u, v):
    """u v, cancelling the junction: for reduced u and v, the longest suffix of
    u that is the inverse of a prefix of v is all that free reduction removes."""
    a, b = u.letters, v.letters
    if not a or not b or _INV[a[-1]] != b[0]:
        letters = a + b
    else:
        k, top = 1, min(len(a), len(b))
        while k < top and _INV[a[-1 - k]] == b[k]:
            k += 1
        letters = a[:len(a) - k] + b[k:]
    if len(letters) > MAX_WORD_LEN:
        raise _too_long()
    w = _new(ReducedWord)
    _set_letters(w, letters)
    return w


# gen^k for gen in "ab" and 0 <= k <= MAX_WORD_LEN, read by the cross-check
_POWERS = {x: [_trusted(x * k) for k in range(MAX_WORD_LEN + 1)] for x in "ab"}


# the partition class of a word, keyed by its first letter ("" for e)
_CLASS = {"": "B", "a": "A", "A": "A", "b": "B", "B": "B"}


def all_reduced_words(max_len):
    """All reduced words of length <= max_len, in length-lex order.

    Each frontier is lex-sorted because its parents are and each parent's
    extensions come out in ascending letter order.
    """
    # Keeps _trusted's invariant (no unvalidated word longer than the cap);
    # it is not a runtime bound, since 3^max_len grows long before the cap.
    if max_len > MAX_WORD_LEN:
        raise _too_long()
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in _NEXT[s[-1:]]]
        out.extend(frontier)
    return _trusted_all(out)


def _prefix_decompose(y, letter):
    """y = letter^j * w with j maximal in absolute value and w not starting
    with letter or its inverse."""
    n = len(y.letters)
    rest = y.letters.lstrip(letter)
    j = n - len(rest)
    if not j:
        rest = y.letters.lstrip(_INV[letter])
        j = len(rest) - n
    return j, _trusted(rest) if j else y


def _fgroup_count(y, n, inv, cls, powers):
    """|{i in [1, n] : gen^i y in class cls}|, where inv = gen^-1 and words
    starting gen-type lie outside class cls, by the prefix case analysis.

    Write y = gen^-k w with w not starting gen-type. Then gen^i y lies outside
    cls unless i = k; so the count is 1 when k lands in [1, n] and w is in
    class cls, else 0, and never more than 1 for any y. A y that does not
    start with inv has k <= 0 and count 0, and is decided on its first letter.

    With powers (gen^1, ..., gen^n, from ``_powers``) the count is
    cross-checked: every product gen^i y is formed through the module's
    ``word_multiply`` and classed by its first letter. The guards on n are
    the caller's, checked once per count or per certificate.
    """
    structural = 0
    if y.letters[:1] == inv:
        k, w = _prefix_decompose(y, inv)
        if k <= n and _CLASS[w.letters[:1]] == cls:
            structural = 1
    if powers is not None:
        multiply, direct = word_multiply, 0
        for p in powers:
            if _CLASS[multiply(p, y).letters[:1]] == cls:
                direct += 1
        if direct != structural:
            raise SoldensError(f"case analysis disagrees with direct product at y={y}")
    return structural


def _powers(gen, n, cross_check):
    """Check n, and return gen^1, ..., gen^n for the cross-check, or None
    without one."""
    if n < 1:
        raise SoldensError("n must be >= 1", kind=BAD_INPUT)
    if not cross_check:
        return None
    if n > MAX_WORD_LEN:
        raise _too_long()  # as the products would
    return _POWERS[gen][1:n + 1]


def fgroup_row_count(y, n, cross_check=True):
    """|{i in [1, n] : b^i y in class A}| by the prefix case analysis: 1 when
    y = b^-i w for some i in [1, n] with w starting a-type, else 0."""
    return _fgroup_count(y, n, "B", "A", _powers("b", n, cross_check))


def fgroup_nonsubadditivity_certificate(n, check_len=8):
    """EXACT upper certificates for both halves of the partition.

    F = {b, ..., b^n} meets every right translate of class A in at most one
    point (likewise {a, ..., a^n} for class B), so the uniform measure on F
    gives a right-density bound 1/n for each half, although the two halves
    together are the whole group. The case analysis covers all y; the
    enumeration up to check_len is a safety net, and its maximum row count is
    reported.
    """
    if n < 1 or check_len < 1:
        raise SoldensError("n and check_len must be >= 1", kind=BAD_INPUT)
    if check_len > MAX_CHECK_LEN:
        raise SoldensError(f"check_len {check_len} exceeds cap {MAX_CHECK_LEN}", kind=SIZE_GUARD)
    # b^n a^check_len, the longest product the cross-check forms, has n + check_len letters
    if n + check_len > MAX_WORD_LEN:
        raise SoldensError(f"n {n} + check_len {check_len} exceeds word-length cap {MAX_WORD_LEN}",
                           kind=SIZE_GUARD)
    # the cross-check forms n row and n column products for each of the
    # 2*3^check_len - 1 words
    products = 2 * n * (2 * 3 ** check_len - 1)
    if products > MAX_CERT_PRODUCTS:
        raise SoldensError(f"n {n} and check_len {check_len} form {products} products, "
                           f"above cap {MAX_CERT_PRODUCTS}", kind=SIZE_GUARD)
    rows, cols, worst = _powers("b", n, True), _powers("a", n, True), 0
    for y in all_reduced_words(check_len):
        worst = max(worst, _fgroup_count(y, n, "B", "A", rows), _fgroup_count(y, n, "A", "B", cols))
        if worst > 1:
            raise SoldensError(f"row count exceeded 1 at {y}")
    bound = Fraction(1, n)
    f_a = ms.uniform_on([f"b^{i}" for i in range(1, n + 1)])
    f_b = ms.uniform_on([f"a^{i}" for i in range(1, n + 1)])
    cert_a = dn.BoundCertificate(dn.DensityKind.SIGMA_CAP_R, "upper", bound, f_a, dn.EXACT, bound)
    cert_b = dn.BoundCertificate(dn.DensityKind.SIGMA_CAP_R, "upper", bound, f_b, dn.EXACT, bound)
    return {
        "n": n,
        "cert_class_a": cert_a,
        "cert_class_b": cert_b,
        "union_is_group": True,
        "union_density": Fraction(1),
        "subadditivity_gap": Fraction(1) - 2 * bound,
        "max_row_count_checked": worst,
        "check_len": check_len,
    }
