import random
from fractions import Fraction

import pytest

import soldens.groups as gr
import soldens.measures as ms


def test_measure_normalization_and_errors():
    g = gr.cyclic(4)
    mu = ms.measure(g, {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0)})
    assert mu.support() == [0, 1]
    with pytest.raises(ms.MeasureError):
        ms.measure(g, {0: Fraction(1, 3)})
    with pytest.raises(ms.MeasureError):
        ms.measure(g, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_weights_are_checked_as_the_exact_fractions_they_are_stored_as():
    # 0.1 + 0.9 is 1.0 in floats, but the binary values of the two floats sum to
    # 36028797018963969/36028797018963968
    with pytest.raises(ms.MeasureError,
                       match="^weights sum to 36028797018963969/36028797018963968, not 1$") as e:
        ms.measure(None, {0: 0.1, 1: 0.9})
    assert e.value.kind == "bad-input"
    assert ms.measure(None, {0: 0.5, 1: 0.5}).entries == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_dirac_and_uniform():
    g = gr.cyclic(3)
    assert ms.dirac(2, g).weight(2) == 1
    u = ms.uniform_on(gr.subset(g, [0, 2]))
    assert u.weight(0) == Fraction(1, 2)
    with pytest.raises(ms.MeasureError):
        ms.uniform_on([])


def test_convolution_matches_hand_computation():
    g = gr.cyclic(4)
    mu = ms.measure(g, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    conv = ms.convolve(mu, mu)
    assert conv.weight(0) == Fraction(1, 4)
    assert conv.weight(1) == Fraction(1, 2)
    assert conv.weight(2) == Fraction(1, 4)


def test_convolution_requires_shared_carrier():
    mu = ms.dirac(0, gr.cyclic(3))
    nu = ms.dirac(0, gr.cyclic(4))
    with pytest.raises(ms.MeasureError):
        ms.convolve(mu, nu)


def test_haar_is_convolution_absorbing():
    rng = random.Random(7)
    for n in (2, 3, 5):
        g = gr.cyclic(n)
        haar = ms.haar_uniform(g)
        pts = rng.sample(range(n), rng.randint(1, n))
        mu = ms.uniform_on(pts, carrier=g)
        assert ms.convolve(haar, mu) == haar
        assert ms.convolve(mu, haar) == haar


def test_pushforward_along_quotient():
    g = gr.cyclic(6)
    hom = gr.quotient_map(g, gr.subset(g, [0, 3]))
    mu = ms.measure(g, {1: Fraction(1, 2), 4: Fraction(1, 2)})
    push = ms.pushforward(hom, mu)
    assert push.weight(hom.apply(1)) == 1


def test_sup_translates_patterns_and_argmax():
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 1])
    mu = ms.measure(g, {0: Fraction(3, 4), 2: Fraction(1, 4)})
    best, arg = ms.sup_translates(mu, a, "left")
    assert best == Fraction(3, 4)
    assert arg == (0,)  # least maximizer: 0A = {0,1} already grabs the heavy atom
    best2, _ = ms.sup_translates(mu, a, "two-sided")
    assert best2 >= best
    with pytest.raises(ms.MeasureError):
        ms.sup_translates(mu, a, "diagonal")


def _direct_sup(mu, a, pattern):
    """The maximum of mu over the translates of A and the least translate
    reaching it, recomputed from the group table."""
    g = mu.carrier
    t, elems = g.table, list(g.elements())
    if pattern == "two-sided":
        keys = [(x, y) for x in elems for y in elems]
    else:
        keys = [(z,) for z in elems]
    image = {"left": lambda k, q: t[k[0]][q], "right": lambda k, q: t[q][k[0]],
             "two-sided": lambda k, q: t[t[k[0]][q]][k[1]]}[pattern]
    values = {k: sum((mu.weight(p) for p in {image(k, q) for q in a.indices()}), Fraction(0))
              for k in keys}
    best = max(values.values())
    return best, min(k for k, v in values.items() if v == best)


def test_sup_translates_pins_value_and_least_translate():
    s3 = gr.symmetric(3)
    a = gr.subset(s3, [1, 2])
    mu = ms.measure(s3, {0: Fraction(1, 2), 3: Fraction(1, 3), 5: Fraction(1, 6)})
    assert ms.sup_translates(mu, a, "left") == (Fraction(5, 6), (2,))
    assert ms.sup_translates(mu, a, "right") == (Fraction(5, 6), (1,))
    assert ms.sup_translates(mu, a, "two-sided") == (Fraction(5, 6), (0, 1))
    rng = random.Random(3)
    for spec in ("cyclic:5", "s3", "d4", "cyclic:2*cyclic:4"):
        g = gr.build_group(spec)
        for _ in range(8):
            a = gr.subset(g, rng.sample(range(g.order), rng.randint(1, g.order)))
            support = rng.sample(range(g.order), rng.randint(1, g.order))
            weights = [rng.randint(1, 4) for _ in support]
            mu = ms.measure(g, {p: Fraction(w, sum(weights)) for p, w in zip(support, weights)})
            for pattern in ("left", "right", "two-sided"):
                assert ms.sup_translates(mu, a, pattern) == _direct_sup(mu, a, pattern)
