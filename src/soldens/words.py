"""The free group on two generators as reduced words over {a, A, b, B}
(capital = inverse), with the structural right-density certificates for the
class-A / class-B partition and its non-subadditivity exhibit.

Trust boundary: the public ``ReducedWord(...)`` constructor and ``word()``
validate (letters, reducedness, the ``MAX_WORD_LEN`` cap); ``word_power``
checks its letter and the cap. The internal builders (``all_reduced_words``,
``word_multiply``, ``word_invert``, ``_prefix_decompose``) make words that are
reduced by construction and skip validation. ``word_multiply`` cancels only at
the junction, which for two reduced words is the whole free reduction, and
checks the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import densities as dn

MAX_WORD_LEN = 64
MAX_CHECK_LEN = 10  # fgroup certificate enumerates 2*3^check_len words

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_INVERT = str.maketrans(_INV)
# letters that may follow the last letter of a reduced word, in ascending order
_NEXT = {x: "".join(c for c in "ABab" if c != _INV.get(x)) for x in ("", *_INV)}
_CAP_MESSAGE = f"word length exceeds cap {MAX_WORD_LEN}"


class WordError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ReducedWord:
    letters: str

    def __post_init__(self):
        for c in self.letters:
            if c not in _INV:
                raise WordError(f"bad letter {c!r}")
        for x, y in zip(self.letters, self.letters[1:]):
            if _INV[x] == y:
                raise WordError(f"not reduced at {x}{y}")
        if len(self.letters) > MAX_WORD_LEN:
            raise WordError(_CAP_MESSAGE)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters or "e"


def _trusted(letters):
    """A ReducedWord without validation, for letters that are reduced and
    within MAX_WORD_LEN by construction."""
    w = object.__new__(ReducedWord)
    object.__setattr__(w, "letters", letters)
    return w


def word(text):
    """Free reduction of an arbitrary letter string."""
    out = []
    for c in text:
        if c not in _INV:
            raise WordError(f"bad letter {c!r}")
        if out and _INV[out[-1]] == c:
            out.pop()
        else:
            out.append(c)
    if len(out) > MAX_WORD_LEN:
        raise WordError(_CAP_MESSAGE)
    return _trusted("".join(out))


EMPTY = word("")


def word_multiply(u, v):
    """u v, cancelling the junction: for reduced u and v, the longest suffix of
    u that is the inverse of a prefix of v is all that free reduction removes."""
    a, b = u.letters, v.letters
    k, top = 0, min(len(a), len(b))
    while k < top and _INV[a[-1 - k]] == b[k]:
        k += 1
    letters = a[:len(a) - k] + b[k:]
    if len(letters) > MAX_WORD_LEN:
        raise WordError(_CAP_MESSAGE)
    return _trusted(letters)


def word_invert(u):
    return _trusted(u.letters[::-1].translate(_INVERT))


def word_power(letter, k):
    """letter^k for k in Z."""
    if letter not in _INV:
        raise WordError(f"bad letter {letter!r}")
    if abs(k) > MAX_WORD_LEN:
        raise WordError(_CAP_MESSAGE)
    return _trusted(letter * k if k >= 0 else _INV[letter] * -k)


def partition_class(w):
    """'A' for words starting with a or a^-1, 'B' otherwise (including e)."""
    if w.letters and w.letters[0] in "aA":
        return "A"
    return "B"


def all_reduced_words(max_len):
    """All reduced words of length <= max_len, in length-lex order.

    Each frontier is lex-sorted because its parents are and each parent's
    extensions come out in ascending letter order.
    """
    # Keeps _trusted's invariant (no unvalidated word longer than the cap);
    # it is not a runtime bound, since 3^max_len grows long before the cap.
    if max_len > MAX_WORD_LEN:
        raise WordError(_CAP_MESSAGE)
    out = [EMPTY]
    frontier = [EMPTY]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            s = w.letters
            nxt.extend([_trusted(s + c) for c in _NEXT[s[-1:]]])
        out.extend(nxt)
        frontier = nxt
    return out


def _prefix_decompose(y, letter):
    """y = letter^j * w with j maximal in absolute value and w not starting
    with letter or its inverse."""
    n = len(y.letters)
    rest = y.letters.lstrip(letter)
    j = n - len(rest)
    if not j:
        rest = y.letters.lstrip(_INV[letter])
        j = len(rest) - n
    return j, _trusted(rest)


def fgroup_row_count(y, n, cross_check=True):
    """|{i in [1, n] : b^i y in class A}| by the prefix case analysis.

    Write y = b^j w with w empty or starting with a-type. Then b^i y = b^{i+j} w,
    which starts with a-type exactly when i + j = 0 and w is nonempty; so the
    count is 1 when -j lands in [1, n] and w starts a-type, else 0, and is
    never more than 1 for any y.
    """
    if n < 1:
        raise WordError("n must be >= 1")
    j, w = _prefix_decompose(y, "b")
    structural = 1 if (1 <= -j <= n and w.letters and w.letters[0] in "aA") else 0
    if cross_check:
        direct = sum(
            1 for i in range(1, n + 1)
            if partition_class(word_multiply(word_power("b", i), y)) == "A"
        )
        if direct != structural:
            raise WordError(f"case analysis disagrees with direct product at y={y}")
    return structural


def fgroup_col_count(y, n):
    """Mirror count for class B with F = {a, ..., a^n}; same case analysis
    with the roles of the generators swapped."""
    if n < 1:
        raise WordError("n must be >= 1")
    j, w = _prefix_decompose(y, "a")
    structural = 1 if (1 <= -j <= n and (not w.letters or w.letters[0] in "bB")) else 0
    direct = sum(
        1 for i in range(1, n + 1)
        if partition_class(word_multiply(word_power("a", i), y)) == "B"
    )
    if direct != structural:
        raise WordError(f"case analysis disagrees with direct product at y={y}")
    return structural


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
        raise WordError("n and check_len must be >= 1")
    if check_len > MAX_CHECK_LEN:
        raise WordError(f"check_len {check_len} exceeds cap {MAX_CHECK_LEN}")
    worst = 0
    for y in all_reduced_words(check_len):
        worst = max(worst, fgroup_row_count(y, n), fgroup_col_count(y, n))
        if worst > 1:
            raise WordError(f"row count exceeded 1 at {y}")
    import soldens.measures as ms

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


def translate_pair_search(a_oracle, f_words, max_len=6):
    """Least (length-lex) pair (x, y) with x f y in A for every f in F, or a
    bounded-failure report."""
    candidates = all_reduced_words(max_len)
    for x, y in product(candidates, repeat=2):
        if all(a_oracle(word_multiply(word_multiply(x, f), y)) for f in f_words):
            return {"found": (x, y), "horizon": None}
    return {"found": None, "horizon": max_len}
