"""Exact zero-sum matrix games: minimax densities, intersection numbers and
the extremal-density hierarchy.

Row player minimizes, column player maximizes, everywhere. A payoff is an
int matrix over one denominator > 0: 0/1 over 1 in every game built from a
set here but one: the Haar candidate of an interval pattern holds column
sums in [0, |G|] over |G|. A game read from JSON is over the lcm of its
denominators. Its LP runs on ints in simplex.solve_lp_int, and the only
Fractions of a solve are those of the GameSolution that _solve makes from
the kernel's ints. On a finite group the densities equal Haar measure
|A|/|G| (the paper's sigma = lambda), and the uniform (Haar) strategy pair
is optimal in every game built from a finite group here. Value-only callers
go through _value, which pivots only when that pair does not meet. The
callers that return strategies pivot unless the pair is the unique optimum
(_certified: a square payoff on which the pair meets and whose lifted matrix
is nonsingular): a unique optimum is the vertex Bland's rule stops on, so
the pair's ints are the kernel's, over another d.
The extremal patterns read each payoff from one hit table: for each
assignment in G^n, the bit "the product in substitution order lies in A".
It is built as bytes (every index is below DEFAULT_ORDER_CAP <= 256): each
factor, in assignment order, joins every product so far at once, by a join
of the table's rows (or columns) indexed by those products; then one
translate through A's 0/1 bytes. An interval pattern slices it once into
|G| outer and |G| middle blocks of |G|^2 entries; a Dirac candidate is one
block, and Haar their column sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from . import densities as dn
from . import groups as gr
from . import measures as ms
from .errors import BAD_INPUT, SIZE_GUARD, SoldensError, reading
from .simplex import solve_lp_int

MAX_PATTERN_LENGTH = 3  # of eval_extremal; its hit table has |G|^length entries
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # the ASCII digits of a binary numeral to 0/1


@dataclass(frozen=True)
class MatrixGame:
    payoff: tuple  # tuple of row tuples of Fractions

    def __post_init__(self):
        if not self.payoff or not self.payoff[0]:
            raise SoldensError("empty payoff matrix", kind=BAD_INPUT)
        if any(len(row) != len(self.payoff[0]) for row in self.payoff):
            raise SoldensError("payoff rows differ in length", kind=BAD_INPUT)

    @staticmethod
    def from_json(text):
        with reading("game JSON"):
            # decimals stay text until the shape is checked, then rational converts them
            payoff = json.loads(text, parse_float=str)["payoff"]
            if not (type(payoff) is list and all(type(row) is list for row in payoff)):
                raise TypeError("payoff is not a list of lists")
            if max([len(payoff), *map(len, payoff)]) > gr.DEFAULT_ORDER_CAP:
                raise SoldensError(f"payoff has more than {gr.DEFAULT_ORDER_CAP} rows or columns",
                                   kind=SIZE_GUARD)
            rows = [[rational(v) for v in row] for row in payoff]
        return game(rows)


def rational(v):
    """The exact Fraction of an int, a Fraction, or a decimal or p/q string. Bools,
    floats and exponent notation, which could spell a huge int, are refused."""
    if type(v) in (int, Fraction) or type(v) is str and "e" not in v.lower():
        return Fraction(v)
    raise ValueError(f"{v!r} is not an exact rational")


def game(rows):
    return MatrixGame(tuple(tuple(Fraction(v) for v in row) for row in rows))


@dataclass(frozen=True)
class GameSolution:
    value: Fraction
    row_strategy: ms.FinSuppMeasure  # over row indices
    col_strategy: ms.FinSuppMeasure  # over column indices


def solve_game(g):
    """Exact value and both optimal strategies, verified against the
    minimax inequalities before returning."""
    den = lcm(*(v.denominator for row in g.payoff for v in row))
    ints = [[v.numerator * (den // v.denominator) for v in row] for row in g.payoff]
    return _solve(ints, den, _certified(ints, den))


def _solve(ints, den, certified):
    """solve_game for the payoff ints/den: int rows and an int den > 0.
    certified is _certified(ints, den), or False to pivot."""
    m, n = len(ints), len(ints[0])
    lift = den - min(min(row) for row in ints)  # den * (1 - min payoff)
    # Row player's LP scaled by den: maximize sum(x) s.t. den (M + shift)^T x <= den.
    # Bland's rule pivots as without the scaling, which divides the duals by den.
    cols = list(zip(*ints))
    if certified:
        # The uniform pair, over the lifted row sum: (den, ..., den) and (1, ..., 1).
        d, x, duals = sum(ints[0]) + n * lift, [den] * m, [1] * n
    else:
        d, x, duals = solve_lp_int([1] * m, [[v + lift for v in col] for col in cols], [den] * n)
    total = sum(x)  # the LP objective is total/d
    if total <= 0:
        raise SoldensError("degenerate LP objective")
    # Row i plays x_i/total and column j duals_j den/total; the value is top/(total den).
    top = d * den - lift * total
    if any(sum(map(mul, x, col)) > top for col in cols):
        raise SoldensError("row strategy fails its guarantee")
    if any(den * sum(map(mul, duals, row)) < top for row in ints):
        raise SoldensError("column strategy fails its guarantee")
    # Both strategies are probability vectors, checked in ints; the entries
    # below are then already the normalized, index-ordered ones.
    if min(x) < 0 or min(duals) < 0 or den * sum(duals) != total:
        raise SoldensError("a strategy is not a probability vector")
    rows = ms.FinSuppMeasure(None, tuple((i, Fraction(xi, total)) for i, xi in enumerate(x) if xi))
    cols = ms.FinSuppMeasure(
        None, tuple((j, Fraction(yj * den, total)) for j, yj in enumerate(duals) if yj))
    return GameSolution(Fraction(top, total * den), rows, cols)


def _meet(ints):
    """The common row sum when the uniform strategies meet, else None. They
    hold the value in [min row sum/(n den), max column sum/(m den)], and the
    two ends agree only when every row sum and every column sum is equal."""
    low, high = min(map(sum, ints)), max(map(sum, zip(*ints)))
    return low if low * len(ints) == high * len(ints[0]) else None


def _value(ints, den):
    """_solve(ints, den).value, exact without a pivot when the uniform strategies meet."""
    low = _meet(ints)
    if low is not None:
        return Fraction(low, len(ints[0]) * den)
    return _solve(ints, den, False).value


def _certified(ints, den):
    """Whether the uniform pair is the unique optimum of _solve's LP. It is
    when ints is square, the pair meets and the lifted payoff B = ints + lift
    is nonsingular: both strategies are > 0, so by strict complementary
    slackness every optimum has B^T x = den and B y = 1. A singular B leaves
    a kernel vector that moves x along the optimal face, so this is an iff."""
    if len(ints) != len(ints[0]) or _meet(ints) is None:
        return False
    lift = den - min(min(row) for row in ints)
    return _nonsingular([[v + lift for v in row] for row in ints])


def _nonsingular(rows):
    """Whether the square int matrix rows has det != 0, by fraction-free
    (Bareiss) elimination: after each pivot every remaining entry is a minor
    of the input, so the division by the previous pivot is exact. Each step
    builds new rows; rows itself is left as it is."""
    d = 1
    while rows:
        k = next((i for i, row in enumerate(rows) if row[0]), None)
        if k is None:
            return False
        p, tail = rows[k][0], rows[k][1:]
        rows = [[(p * v - row[0] * w) // d for v, w in zip(row[1:], tail)]
                for row in rows[:k] + rows[k + 1:]]
        d = p
    return True


def intersection_number(family):
    """Kelley intersection number of a finite family of sets: the value of
    the game (family member vs point, membership payoff)."""
    family = [frozenset(b) for b in family]
    if not family:
        raise SoldensError("empty family", kind=BAD_INPUT)
    points = sorted(set().union(*family))
    if not points:
        return Fraction(0)
    return _value([[int(p in b) for p in points] for b in family], 1)


def sigma_R_via_game(group, a):
    """Right density via the shift game, cross-checked against the maximin
    game: the minimax payoff with its rows relabelled g -> g^-1, solved on its
    own. A row permutation keeps the balance and |det|, so one _certified
    decides both: each then skips the pivots, or runs its own Bland path.
    Both values must agree exactly."""
    gr.check_carrier(group, a)
    n = group.order
    m = a.mask
    if not m:
        trivial = _solve([[0]], 1, True)  # [[0]] lifts to the nonsingular [[1]]
        return trivial.value, trivial, trivial
    inside = _bit_bytes(m)
    rows = [row.translate(inside) for row in map(bytes, group.table)]
    certified = _certified(rows, 1)
    minimax = _solve(rows, 1, certified)
    maximin = _solve([rows[group.inverse[x]] for x in range(n)], 1, certified)
    if minimax.value != maximin.value:
        raise SoldensError("minimax and maximin values disagree")
    return minimax.value, minimax, maximin


def sigma_via_game(group, a):
    """Two-sided density via the game with columns deduplicated by the
    translate they induce; asserted equal to the closed form."""
    gr.check_carrier(group, a)
    if not a.mask:
        return Fraction(0)
    masks = {mask for _, mask in gr.translate_masks(group, a, "two-sided")}
    cols = sorted(masks, key=lambda mask: gr.GroupSubset(group, mask).indices())
    value = _value([[c >> g & 1 for c in cols] for g in group.elements()], 1)
    if value != dn.density_closed_form(group, a):
        raise SoldensError("sigma game value differs from closed form")
    return value


@dataclass(frozen=True)
class ExtremalPattern:
    """Quantifier word over {i, s, I, S} (capitals range over all measures,
    at most one allowed) plus a substitution fixing the convolution order."""

    quantifiers: str
    substitution: tuple

    def __post_init__(self):
        n = len(self.quantifiers)
        if n < 1:
            raise SoldensError("empty pattern", kind=BAD_INPUT)
        if any(q not in "isIS" for q in self.quantifiers):
            raise SoldensError("quantifiers must be drawn from i, s, I, S", kind=BAD_INPUT)
        if sum(1 for q in self.quantifiers if q in "IS") > 1:
            raise SoldensError("at most one capital quantifier", kind=BAD_INPUT)
        if sorted(self.substitution) != list(range(1, n + 1)):
            raise SoldensError("substitution must be a permutation of 1..n", kind=BAD_INPUT)

    @staticmethod
    def parse(text):
        tail = text.lstrip("isIS")
        head = text[:len(text) - len(tail)]
        if any(c not in "0123456789" for c in tail):  # int takes any Unicode digit
            raise SoldensError(f"cannot parse pattern {text!r}", kind=BAD_INPUT)
        return ExtremalPattern(head, tuple(map(int, tail)))

    def kinds(self):
        return self.quantifiers.lower()


def _bit_bytes(mask):
    """The bytes.translate table that maps each group element g to bit g of mask."""
    return format(mask, "0256b")[::-1].encode().translate(_DIGITS)


def _hit_table(group, a, substitution):
    """For every assignment in G^n (n <= 3), flat in itertools.product order,
    the bit "the product in substitution order lies in A". The products are
    bytes, grown one factor at a time in assignment order, each new factor
    the fastest axis: it joins the word at its right end by row p of the
    table for each product p so far, or at its left end by column p. When x1
    and x2 are apart in the word (x1 x3 x2 or x2 x3 x1), it grows from x2
    and x1 joins last, and one transpose moves x1's axis to the front. One
    translate through A's 0/1 bytes maps the products to bits."""
    size, n = group.order, len(substitution)
    place = [substitution.index(k) for k in range(1, n + 1)]  # of each factor in the word
    order = (1, 2, 0) if n == 3 and abs(place[0] - place[1]) == 2 else range(n)
    high = place[order[0]]  # the right end of the word so far
    rows = list(map(bytes, group.table))
    cols = list(map(bytes, zip(*group.table))) if high else None  # for factors left of the first
    prods = rows[0]  # row 0 is the identity's: the first factor alone
    for k in order[1:]:
        if place[k] > high:
            high += 1
            prods = b"".join(map(rows.__getitem__, prods))
        else:
            prods = b"".join(map(cols.__getitem__, prods))
    bits = prods.translate(_bit_bytes(a.mask))
    if order[0]:  # the axes are x2 x3 x1
        bits = b"".join([bits[g::size] for g in range(size)])
    return list(bits)


def eval_extremal(pattern, group, a):
    """Evaluate an extremal density of length <= 3 on a finite group.

    Returns ("exact", value) when the pattern collapses to a single matrix
    game (at most one alternation); mixed patterns are then asserted to pin
    to |A|/|G|. Patterns with two alternations return
    ("interval", (lo, hi)) from candidate-strategy bounds.
    """
    gr.check_carrier(group, a)
    n = len(pattern.quantifiers)
    if n > MAX_PATTERN_LENGTH:
        raise SoldensError(f"patterns longer than {MAX_PATTERN_LENGTH} are unsupported", kind=SIZE_GUARD)
    kinds = pattern.kinds()
    if "s" not in kinds:
        return "exact", Fraction(1) if len(a) == group.order else Fraction(0)
    if "i" not in kinds:
        return "exact", Fraction(1) if a.mask else Fraction(0)

    t = _hit_table(group, a, pattern.substitution)
    size = group.order
    if kinds not in ("isi", "sis"):
        # Two blocks: the outer tuple fills the first positions and the inner
        # tuple the rest, so row o of the table holds the payoffs of outer o.
        width = size ** len(kinds.lstrip(kinds[0]))
        payload = [t[i:i + width] for i in range(0, len(t), width)]
        if kinds[0] == "s":
            payload = list(zip(*payload))
        value = _value(payload, 1)
        if value != dn.density_closed_form(group, a):
            raise SoldensError("mixed pattern failed the uniform collapse")
        return "exact", value

    # Three alternating blocks: certified interval only. Outer block o holds
    # the (g1, g2) payoffs of outer o and middle block h the (g0, g2) payoffs
    # of middle h; each Dirac is its block, and Haar their column sums over |G|.
    sq = size * size
    outer = [t[i:i + sq] for i in range(0, len(t), sq)]
    middle = [list(chain.from_iterable(t[i:i + size] for i in range(h * size, len(t), sq)))
              for h in range(size)]
    outer.append(list(map(sum, zip(*outer))))
    middle.append(list(map(sum, zip(*middle))))
    dens = [1] * size + [size]

    def two_block_value(block, den):
        # Remaining middle-vs-inner game with the outer measure folded in.
        payload = [block[i:i + size] for i in range(0, sq, size)]
        if kinds[1] == "s":
            payload = list(zip(*payload))
        return _value(payload, den)

    if kinds[0] == "s":
        lo = max(map(two_block_value, outer, dens))
        hi = min(Fraction(max(block), den) for block, den in zip(middle, dens))
    else:
        hi = min(map(two_block_value, outer, dens))
        lo = max(Fraction(min(block), den) for block, den in zip(middle, dens))
    if lo > hi:
        raise SoldensError("interval bounds crossed")
    return "interval", (lo, hi)
