import copy
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soldens.cli as cli
import soldens.densities as dn
import soldens.games as gm
import soldens.groups as gr
from soldens.simplex import solve_lp_int, solve_lp_max
from test_partitions_properties import _GROUPS, _SPECS

LP_PINNED = Path(__file__).parent / "data" / "lp_pinned.json"
GAMES_PINNED = Path(__file__).parent / "data" / "games_pinned.json"
EXTREMAL_PINNED = Path(__file__).parent / "data" / "extremal_pinned.json"


def test_simplex_basic_lp():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    obj, x, duals = solve_lp_max(
        [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(2), Fraction(3), Fraction(4)],
    )
    assert obj == 4
    assert sum(duals[i] * b for i, b in enumerate([2, 3, 4])) == obj  # strong duality


def _pq(v):
    return f"{v.numerator}/{v.denominator}"


def test_simplex_pinned_corpus():
    # tests/data/lp_pinned.json was solved by the Fraction tableau this kernel
    # replaced: fractional and negative entries, degenerate ratio ties decided
    # by the basis index, several optimal vertices, all-zero columns and the
    # LPs solve_game builds. Never regenerate it to make a change pass.
    corpus = json.loads(LP_PINNED.read_text())
    assert len(corpus) >= 30
    for lp in corpus:
        obj, x, duals = solve_lp_max(
            [Fraction(v) for v in lp["c"]],
            [[Fraction(v) for v in row] for row in lp["a"]],
            [Fraction(v) for v in lp["b"]],
        )
        got = {"objective": _pq(obj), "x": [_pq(v) for v in x], "duals": [_pq(v) for v in duals]}
        assert got == {k: lp[k] for k in got}, lp["name"]


def test_solve_game_pinned_corpus():
    # tests/data/games_pinned.json was solved by the Fraction game layer that
    # the int kernel replaced: mixed denominators, negative entries, duplicate
    # rows and columns, ties with several optimal strategies, single rows and
    # columns. Never regenerate it to make a change pass.
    corpus = json.loads(GAMES_PINNED.read_text())
    assert len(corpus) >= 20
    for case in corpus:
        sol = gm.solve_game(gm.game([[Fraction(v) for v in row] for row in case["payoff"]]))
        got = {"value": _pq(sol.value),
               "row_strategy": [[i, _pq(w)] for i, w in sol.row_strategy.entries],
               "col_strategy": [[j, _pq(w)] for j, w in sol.col_strategy.entries]}
        assert got == {k: case[k] for k in got}, case["name"]


def test_solve_game_matching_pennies_diagonal():
    sol = gm.solve_game(gm.game([[1, 0], [0, 1]]))
    assert sol.value == Fraction(1, 2)
    assert sol.row_strategy.weight(0) == Fraction(1, 2)
    assert sol.col_strategy.weight(1) == Fraction(1, 2)


def test_solve_game_degenerate_shapes():
    assert gm.solve_game(gm.game([[Fraction(3, 7)]])).value == Fraction(3, 7)
    # single row: the column player picks the max
    assert gm.solve_game(gm.game([[1, 5, 2]])).value == 5
    # single column: the row player picks the min
    assert gm.solve_game(gm.game([[1], [5], [2]])).value == 1


def test_solve_game_scaling_and_shift():
    rng = random.Random(11)
    payoff = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
    base = gm.solve_game(gm.game(payoff)).value
    scaled = gm.solve_game(gm.game([[3 * v for v in row] for row in payoff])).value
    shifted = gm.solve_game(gm.game([[v + 7 for v in row] for row in payoff])).value
    assert scaled == 3 * base
    assert shifted == base + 7


def test_intersection_number_examples():
    assert gm.intersection_number([{1, 2}, {2, 3}, {1, 3}]) == Fraction(2, 3)
    assert gm.intersection_number([{1, 2, 3}]) == 1
    assert gm.intersection_number([{1}, {2}]) == Fraction(1, 2)
    assert gm.intersection_number([set()]) == 0
    with pytest.raises(gm.GameError, match="^empty family$") as e:
        gm.intersection_number([])
    assert e.value.kind == "bad-input"


def test_intersection_number_monotone_under_supersets():
    rng = random.Random(5)
    for _ in range(10):
        x = set(range(6))
        family = [set(rng.sample(sorted(x), rng.randint(1, 5))) for _ in range(4)]
        base = gm.intersection_number(family, x)
        member = rng.choice(family)
        bigger = member | {rng.randrange(6)}
        assert gm.intersection_number(family + [bigger], x) >= base


def test_sigma_r_chain_on_examples():
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 1])
    v, minimax, maximin = gm.sigma_R_via_game(g, a)
    assert v == Fraction(1, 2)
    fam = [gr.left_translate(g, x, a).members for x in g.elements()]
    assert gm.intersection_number(fam) == v
    assert minimax.value == maximin.value == v


def test_sigma_via_game_dedups_columns():
    s3 = gr.symmetric(3)
    transpositions = gr.subset(s3, [g for g in range(6) if s3.mul(g, g) == 0 and g != 0])
    assert gm.sigma_via_game(s3, transpositions) == Fraction(1, 2)
    assert gm.sigma_via_game(s3, gr.subset(s3, [])) == 0


def test_extremal_pattern_parsing_and_validation():
    p = gm.ExtremalPattern.parse("Ssi231")
    assert p.quantifiers == "Ssi" and p.substitution == (2, 3, 1)
    with pytest.raises(gm.GameError):
        gm.ExtremalPattern.parse("SI12")  # two capitals
    with pytest.raises(gm.GameError):
        gm.ExtremalPattern.parse("is11")


def _join_split_parse(text):
    """ExtremalPattern.parse as it split the text before the prefix strip:
    every i, s, I and S of the text joined into the head."""
    head = "".join(c for c in text if c in "isIS")
    tail = text[len(head):]
    if any(c not in "0123456789" for c in tail):
        raise gm.GameError(f"cannot parse pattern {text!r}", kind="bad-input")
    return gm.ExtremalPattern(head, tuple(map(int, tail)))


def _parsed(parse, text):
    try:
        return parse(text)
    except gm.GameError as e:
        return str(e), e.kind


# non-ASCII digits that int() reads: Arabic-Indic, Extended Arabic-Indic, Devanagari, fullwidth
_PATTERN_CHARS = "isIS0123456789x\u0661\u06f2\u0967\uff13"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(_PATTERN_CHARS, max_size=8),
                 st.builds(str.__add__, st.text("isIS", max_size=4),
                           st.text(_PATTERN_CHARS, max_size=4))))
def test_parse_agrees_with_the_join_split(text):
    assert _parsed(gm.ExtremalPattern.parse, text) == _parsed(_join_split_parse, text)


def test_extremal_pure_patterns():
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 1])
    assert gm.eval_extremal(gm.ExtremalPattern.parse("ss12"), g, a) == ("exact", 1)
    assert gm.eval_extremal(gm.ExtremalPattern.parse("ii12"), g, a) == ("exact", 0)
    full = gr.subset(g, range(4))
    assert gm.eval_extremal(gm.ExtremalPattern.parse("ii21"), g, full) == ("exact", 1)
    empty = gr.subset(g, [])
    assert gm.eval_extremal(gm.ExtremalPattern.parse("ss21"), g, empty) == ("exact", 0)


def test_extremal_refuses_a_pattern_above_its_length_cap():
    # even a pure pattern, which needs no game, is refused
    g = gr.cyclic(2)
    pattern = gm.ExtremalPattern.parse("ssss1234")
    assert len(pattern.quantifiers) == gm.MAX_PATTERN_LENGTH + 1
    with pytest.raises(gm.GameError) as e:
        gm.eval_extremal(pattern, g, gr.subset(g, [0]))
    assert str(e.value) == "patterns longer than 3 are unsupported" and e.value.kind == "size-guard"


def test_extremal_mixed_collapses_to_uniform_value():
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 1])
    for pat in ("is12", "si21", "iss213", "Ssi231"):
        shape, value = gm.eval_extremal(gm.ExtremalPattern.parse(pat), g, a)
        assert shape == "exact" and value == Fraction(1, 2)


def test_extremal_double_alternation_interval_brackets_uniform():
    g = gr.symmetric(3)
    a = gr.subset(g, [0, 1, 2])
    shape, (lo, hi) = gm.eval_extremal(gm.ExtremalPattern.parse("sis123"), g, a)
    assert shape == "interval"
    assert lo <= Fraction(1, 2) <= hi


def test_extremal_pinned_corpus():
    # tests/data/extremal_pinned.json was evaluated by the per-entry payoff
    # builders the hit table replaced: every two-alternation word with at
    # most one capital under all six substitutions, plus a sample of
    # two-block patterns, on one subset of each size of C4, C5, S3 and
    # C2xC2. The interval endpoints are pinned exactly, not only their
    # bracketing of |A|/|G|. Never regenerate it to make a change pass.
    corpus = json.loads(EXTREMAL_PINNED.read_text())
    assert len(corpus) >= 1500
    groups = {}
    for case in corpus:
        g = groups.setdefault(case["group"], gr.build_group(case["group"]))
        shape, v = gm.eval_extremal(
            gm.ExtremalPattern.parse(case["pattern"]), g, gr.subset(g, case["set"]))
        got = [_pq(v[0]), _pq(v[1])] if shape == "interval" else _pq(v)
        assert (shape, got) == (case["shape"], case["value"]), case


def _naive_hit_table(g, a, substitution):
    """_hit_table by definition: each assignment's factors multiplied with
    group.mul in substitution order."""
    return [int(reduce(g.mul, (gs[pos - 1] for pos in substitution)) in a)
            for gs in product(g.elements(), repeat=len(substitution))]


def _interval_oracle(kinds, g, a, substitution):
    """The interval endpoints as the per-entry payoff builders computed them
    before the block slices: each candidate, a Dirac or Haar as int weights
    over one denominator, summed into every payoff entry by entry."""
    t = _naive_hit_table(g, a, substitution)
    size, els = g.order, range(g.order)
    sq = size * size
    candidates = [([(x, 1)], 1) for x in els] + [([(h, 1) for h in els], size)]

    def two_block_value(outer):
        weights, den = outer
        payload = [[sum(w * t[h * sq + g1 * size + g2] for h, w in weights) for g2 in els]
                   for g1 in els]
        if kinds[1] == "s":
            payload = list(zip(*payload))
        return gm._value(payload, den)

    def pure_sweep(mid, optimum):
        weights, den = mid
        return Fraction(optimum(sum(w * t[g0 * sq + h * size + g2] for h, w in weights)
                                for g0 in els for g2 in els), den)

    if kinds[0] == "s":
        return (max(two_block_value(c) for c in candidates),
                min(pure_sweep(c, max) for c in candidates))
    return (max(pure_sweep(c, min) for c in candidates),
            min(two_block_value(c) for c in candidates))


@st.composite
def _group_and_subset(draw):
    g = _GROUPS[draw(st.sampled_from(_SPECS))]
    return g, gr.subset(g, draw(st.sets(st.integers(0, g.order - 1))))


_D6 = gr.build_group("dihedral:6")


@settings(max_examples=100, deadline=None)
@given(_group_and_subset())
@example((_D6, gr.subset(_D6, [0, 1, 5, 7, 10])))
@example((_D6, gr.subset(_D6, range(0, 12, 2))))
def test_hit_table_matches_a_fold_through_mul(case):
    g, a = case
    for n in (2, 3):
        for substitution in permutations(range(1, n + 1)):
            assert gm._hit_table(g, a, substitution) == _naive_hit_table(g, a, substitution)


def test_hit_table_at_the_order_cap_matches_the_fold_on_a_sample():
    g = gr.cyclic(gr.DEFAULT_ORDER_CAP)
    a = gr.subset(g, [0, 3, 10, 17, 29, 41, 52])
    rng = random.Random(36)
    for n in (2, 3):
        for substitution in permutations(range(1, n + 1)):
            table = gm._hit_table(g, a, substitution)
            assert len(table) == g.order ** n
            for _ in range(500):
                gs = [rng.randrange(g.order) for _ in range(n)]
                index = reduce(lambda i, x: i * g.order + x, gs)
                assert table[index] == int(reduce(g.mul, (gs[pos - 1] for pos in substitution)) in a)


@settings(max_examples=100, deadline=None)
@given(_group_and_subset())
def test_interval_endpoints_match_the_per_entry_oracle(case):
    g, a = case
    for kinds in ("sis", "isi"):
        for substitution in permutations((1, 2, 3)):
            pattern = gm.ExtremalPattern(kinds, substitution)
            want = _interval_oracle(kinds, g, a, substitution)
            assert gm.eval_extremal(pattern, g, a) == ("interval", want)


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6"])
def test_games_refuse_a_subset_of_another_group(spec):
    # cyclic:6 has the order of s3, so only its table tells the two apart
    s3, foreign = gr.symmetric(3), gr.subset(gr.build_group(spec), [0, 1])
    for call in (lambda: gm.sigma_R_via_game(s3, foreign),
                 lambda: gm.eval_extremal(gm.ExtremalPattern.parse("is12"), s3, foreign),
                 lambda: gm.eval_extremal(gm.ExtremalPattern.parse("ss12"), s3, foreign)):
        with pytest.raises(gr.GroupError, match="^subsets of different groups$") as e:
            call()
        assert e.value.kind == "bad-input"


def test_game_json_roundtrip():
    g = gm.game([[Fraction(1, 2), 0], [1, Fraction(-2, 3)]])
    again = gm.MatrixGame.from_json(cli.dumps(g))
    assert again == g


@pytest.mark.parametrize("text, value", [
    ('{"payoff": [[0.1, 0], [0, 0.2]]}', Fraction(1, 15)),
    ('{"payoff": [["0.25", "-1/3"], [-0.5, "-1.5"]]}', Fraction(-1, 2)),
])
def test_game_json_decimals_parse_exactly(text, value):
    assert gm.solve_game(gm.MatrixGame.from_json(text)).value == value


@pytest.mark.parametrize("text", [
    '{"payoff": [[1e-5000, 0]]}', '{"payoff": [["1e-5000", 0]]}', '{"payoff": [[1E2]]}',
    '{"payoff": [[true, 0]]}', '{"payoff": [[NaN]]}'])
def test_game_json_refuses_exponents_booleans_and_floats(text):
    with pytest.raises(gm.GameError) as e:
        gm.MatrixGame.from_json(text)
    assert e.value.kind == "bad-input"


def test_game_json_size_guard_runs_before_any_entry_is_converted(monkeypatch):
    def rational(v):
        raise AssertionError("entry converted")

    monkeypatch.setattr(gm, "rational", rational)
    row = "[" + ", ".join(["0.5"] * 1000) + "]"
    text = '{"payoff": [%s]}' % ", ".join([row] * 1000)  # 1000 x 1000 decimals
    with pytest.raises(gm.GameError, match="more than 64 rows or columns") as e:
        gm.MatrixGame.from_json(text)
    assert e.value.kind == "size-guard"


def test_balanced_value_only_games_never_reach_the_lp_kernel(monkeypatch):
    # Every value-only game below is balanced, so the uniform (Haar) pair
    # certifies it; callers that return strategies skip the pivots only when
    # the pair is also the unique optimum (square, lifted payoff nonsingular).
    def kernel(c, a_rows, b):
        raise AssertionError("pivoted")

    monkeypatch.setattr(gm, "solve_lp_int", kernel)
    s3 = gr.symmetric(3)
    exact = ["is12", "si12", "is21", "si21", "iS12", "Is12", "sI21", "Si12",
             "iss213", "iss123", "ssi123", "sii123", "iis123", "Ssi231", "ssI132"]
    for bits in range(1, 2 ** s3.order):
        a = gr.subset(s3, [g for g in s3.elements() if bits >> g & 1])
        target = dn.density_closed_form(s3, a)
        for p in exact:
            assert gm.eval_extremal(gm.ExtremalPattern.parse(p), s3, a) == ("exact", target)
        for p in ("sis123", "isi132", "sis213"):
            shape, (lo, hi) = gm.eval_extremal(gm.ExtremalPattern.parse(p), s3, a)
            assert shape == "interval" and lo <= target <= hi
        fam = [gr.left_translate(s3, x, a).members for x in s3.elements()]
        assert gm.intersection_number(fam) == target
        assert gm.sigma_via_game(s3, a) == target
    c4 = gr.cyclic(4)
    for pivots in (lambda: gm.intersection_number([{1}, {1, 2}]),
                   lambda: gm.solve_game(gm.game([[2, 0], [0, 1]])),  # unbalanced
                   lambda: gm.solve_game(gm.game([[1, 1], [1, 1]])),  # balanced, singular
                   lambda: gm.sigma_R_via_game(c4, gr.subset(c4, [0, 2])),  # duplicate rows
                   lambda: gm.solve_game(gm.game([[1, 0], [0, 1], [0, 0]]))):  # not square
        with pytest.raises(AssertionError, match="pivoted"):
            pivots()
    # balanced, square and nonsingular once lifted: the uniform pair is the unique optimum
    assert gm.solve_game(gm.game([[1, 0], [0, 1]])).value == Fraction(1, 2)
    assert gm.sigma_R_via_game(s3, gr.subset(s3, [0]))[0] == Fraction(1, 6)


@pytest.mark.parametrize("kernel, message", [
    # x = (2, 1) over d = 5 puts 2/3 of the row weight on row 0, which column 0 punishes
    ((5, [2, 1], [1, 2]), "row strategy fails its guarantee"),
    # duals (2, 1) put 2/3 of the column weight on column 0, which row 1 escapes
    ((5, [1, 2], [2, 1]), "column strategy fails its guarantee"),
])
def test_both_guarantee_checks_reject_a_wrong_kernel_result(monkeypatch, kernel, message):
    # the LP of [[2, 0], [0, 1]], unbalanced so it pivots: payoffs lifted by 1, transposed
    assert gm.solve_lp_int([1, 1], [[3, 1], [1, 2]], [1, 1]) == (5, [1, 2], [1, 2])
    monkeypatch.setattr(gm, "solve_lp_int", lambda c, a_rows, b: kernel)
    with pytest.raises(gm.GameError, match=f"^{message}$"):
        gm.solve_game(gm.game([[2, 0], [0, 1]]))


@pytest.mark.parametrize("payoff, kernel", [
    # duals (2, 4) pass the column check but weigh 2 in all
    ([[2, 0], [0, 1]], (5, [1, 2], [2, 4])),
    # on the zero game both checks pass for any x and duals with the same sum
    ([[0, 0], [0, 0]], (1, [2, -1], [1, 0])),
    ([[0, 0], [0, 0]], (1, [1, 0], [2, -1])),
])
def test_strategies_must_be_probability_vectors(monkeypatch, payoff, kernel):
    monkeypatch.setattr(gm, "solve_lp_int", lambda c, a_rows, b: kernel)
    with pytest.raises(gm.GameError, match="^a strategy is not a probability vector$") as e:
        gm.solve_game(gm.game(payoff))
    assert e.value.kind == "invariant-failure"


def _forced_bland(call):
    """call() with _certified forced to False, so every _solve runs Bland's rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gm, "_certified", lambda ints, den: False)
        return call()


@st.composite
def _permutation_sum(draw):
    """A sum of weighted n x n permutation matrices, weights of either sign:
    every row sum and every column sum is the sum of the weights."""
    n = draw(st.integers(1, 5))
    ints = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        w, perm = draw(st.integers(-4, 4)), draw(st.permutations(range(n)))
        for i, j in enumerate(perm):
            ints[i][j] += w
    return ints


@settings(max_examples=100, deadline=None)
@given(_group_and_subset())
def test_certified_sigma_r_equals_the_forced_bland_path(case):
    g, a = case
    assert repr(gm.sigma_R_via_game(g, a)) == repr(_forced_bland(lambda: gm.sigma_R_via_game(g, a)))


@settings(max_examples=200, deadline=None)
@given(_permutation_sum(), st.sampled_from([1, 2, 6, 35]))
def test_certified_solve_equals_the_forced_bland_path(ints, den):
    assert repr(gm._solve(ints, den)) == repr(_forced_bland(lambda: gm._solve(ints, den)))


def test_sigma_r_payoff_entry_gh_is_the_bit_of_gh_in_a(monkeypatch):
    payoffs = []
    real = gm._solve

    def spy(ints, den, certified=None):
        payoffs.append([list(row) for row in ints])
        return real(ints, den, certified)

    monkeypatch.setattr(gm, "_solve", spy)
    s3 = gr.symmetric(3)
    a = gr.subset(s3, [0, 1, 3])
    gm.sigma_R_via_game(s3, a)
    minimax = [[int(s3.mul(g, h) in a) for h in range(6)] for g in range(6)]
    assert minimax != [list(col) for col in zip(*minimax)]  # s3 tells gh from hg here
    assert payoffs == [minimax, [minimax[s3.inv(x)] for x in range(6)]]


def test_only_uncertified_sigma_r_payoffs_reach_the_lp_kernel(monkeypatch):
    calls = []

    def kernel(c, a_rows, b):
        calls.append(len(c))
        return solve_lp_int(c, a_rows, b)

    monkeypatch.setattr(gm, "solve_lp_int", kernel)
    c4, c8 = gr.cyclic(4), gr.cyclic(8)
    # {0, 2} of cyclic:4 gives rows g and g + 2 the same payoff: singular, so both solves pivot
    assert gm.sigma_R_via_game(c4, gr.subset(c4, [0, 2]))[0] == Fraction(1, 2)
    assert calls == [4, 4]
    calls.clear()
    assert gm.sigma_R_via_game(c8, gr.subset(c8, [0, 1, 2]))[0] == Fraction(3, 8)
    assert calls == []


def _fraction_det(rows):
    """det by Gaussian elimination over Fractions, the oracle of _nonsingular."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return det


@st.composite
def _square_int_matrix(draw):
    """A random n x n int matrix; one in three has a row copied from another
    row, and one in three a row that is the sum of two others."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["random", "duplicate", "sum"]))
    if shape == "duplicate" and n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    elif shape == "sum" and n >= 3:
        i, j, k = draw(st.permutations(range(n)))[:3]
        rows[i] = [v + w for v, w in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(_square_int_matrix())
def test_nonsingular_agrees_with_a_fraction_determinant(rows):
    assert gm._nonsingular(rows) == (_fraction_det(rows) != 0)


@pytest.mark.parametrize("rows, det", [
    ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 0),  # a duplicated row
    ([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 0),  # row 2 = row 0 + row 1
    ([[0, 2], [3, 0]], -6),  # the first column's pivot is in row 1
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], 4),  # the lifted payoff of the 3 x 3 identity
])
def test_nonsingular_on_dependent_rows_and_a_zero_leading_entry(rows, det):
    assert _fraction_det(rows) == det
    assert gm._nonsingular(rows) == (det != 0)


@settings(max_examples=200, deadline=None)
@given(_square_int_matrix())
def test_nonsingular_leaves_its_argument_unchanged(rows):
    rows[0][0] = 0  # a zero leading entry: that row is only scaled at the first pivot
    before = copy.deepcopy(rows)
    gm._nonsingular(rows)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(_permutation_sum(), st.sampled_from([1, 2, 6, 35]))
def test_certified_is_a_nonzero_lifted_determinant(ints, den):
    lift = den - min(map(min, ints))
    want = _fraction_det([[v + lift for v in row] for row in ints]) != 0
    assert gm._certified(ints, den) == want
    # a missing column or an unbalanced entry is never certified
    if len(ints) > 1:
        assert not gm._certified([row[1:] for row in ints], den)
        assert not gm._certified([[ints[0][0] + 1, *ints[0][1:]], *ints[1:]], den)
