import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

import soldens.densities as dn
import soldens.groups as gr
import soldens.measures as ms
from soldens.errors import BAD_INPUT, SoldensError


def test_closed_form():
    g = gr.cyclic(4)
    assert dn.density_closed_form(g, gr.subset(g, [0, 1])) == Fraction(1, 2)
    assert dn.density_closed_form(g, gr.subset(g, [])) == 0


def test_bruteforce_agrees_with_closed_form_small():
    g = gr.cyclic(5)
    for bits in range(2 ** 5):
        a = gr.subset(g, [i for i in range(5) if bits >> i & 1])
        for kind in dn.ALL_KINDS:
            v, witness = dn.density_bruteforce(g, a, kind)
            assert v == dn.density_closed_form(g, a, kind)
            assert witness


def test_bruteforce_witness_is_size_lex_least():
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 2])  # a subgroup: the singleton witness {0} already works
    v, witness = dn.density_bruteforce(g, a, dn.DensityKind.SIGMA_R)
    assert v == Fraction(1, 2)
    assert witness == (0, 1)


def _reference_bruteforce(group, a, kind):
    """The first F in (size, lex) order whose translate supremum, recomputed with
    Fractions straight from group.table, reaches |A|/|G|; with that supremum."""
    t, n = group.table, group.order
    xs = range(n) if kind.pattern != "right" else [0]
    ys = range(n) if kind.pattern != "left" else [0]
    translates = [{t[t[x][q]][y] for q in a} for x in xs for y in ys]
    target = Fraction(len(a), n)
    for size in range(1, n + 1):
        for f in combinations(range(n), size):
            v = max(Fraction(len(s.intersection(f)), size) for s in translates)
            if v == target:
                return v, f
    raise AssertionError("no witness reaches |A|/|G|")


def test_bruteforce_matches_an_independent_fraction_reference():
    cases = [(g, bits) for g in map(gr.build_group, ("cyclic:4", "cyclic:5", "s3"))
             for bits in range(2 ** g.order)]
    rng = random.Random(30)
    for spec in ("d4", "cyclic:2*cyclic:4", "cyclic:7"):
        g = gr.build_group(spec)
        cases += [(g, bits) for bits in rng.sample(range(2 ** g.order), 4)]
    for g, bits in cases:
        a = gr.GroupSubset(g, bits)
        for kind in dn.ALL_KINDS:
            assert dn.density_bruteforce(g, a, kind) == _reference_bruteforce(g, a, kind), (g.label, bits, kind)


def test_the_kernels_build_one_fraction_per_result(monkeypatch):
    g = gr.cyclic(8)
    a, mu = gr.subset(g, [0]), ms.haar_uniform(g)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(dn, "Fraction", counting)
    monkeypatch.setattr(ms, "Fraction", counting)
    assert dn.density_bruteforce(g, a) == (Fraction(1, 8), tuple(range(8)))
    assert len(built) <= 2
    built.clear()
    assert ms.sup_translates(mu, a, "two-sided") == (Fraction(1, 8), (0, 0))
    assert len(built) <= 1


def test_certificate_from_witness_and_post_check():
    g = gr.cyclic(6)
    a = gr.subset(g, [0, 1])
    cert = dn.certificate_from_witness(g, a, range(6), dn.DensityKind.SIGMA_R)
    assert cert.bound == Fraction(1, 3)
    assert cert.scope == dn.EXACT
    with pytest.raises(SoldensError, match="^certificate bound differs from verified supremum$"):
        dn.BoundCertificate(dn.DensityKind.SIGMA, "upper", Fraction(1, 3),
                            cert.witness, dn.EXACT, Fraction(1, 2))


def test_witness_points_must_be_elements_of_the_group():
    # a point outside the group lies in no translate, so it used to certify bound 0
    g = gr.cyclic(4)
    a = gr.subset(g, [0, 1])
    bad = [
        lambda: dn.certificate_from_witness(g, a, [9]),
        lambda: dn.certificate_from_witness(g, a, [-1, 0]),
        lambda: dn.certificate_from_witness(g, a, ms.measure(g, {0: Fraction(1, 2), 4: Fraction(1, 2)})),
        lambda: ms.dirac(4, g),
        lambda: ms.FinSuppMeasure(g, ((9, Fraction(1)),)),
        lambda: ms.uniform_on([0, 1.0], carrier=g),
    ]
    for build in bad:
        with pytest.raises(SoldensError) as info:
            build()
        assert info.value.kind == BAD_INPUT
    assert dn.certificate_from_witness(g, a, [0, 2]).bound == Fraction(1, 2)


def test_combine_certificates_convolves_witnesses():
    g = gr.cyclic(6)
    a, b = gr.subset(g, [0]), gr.subset(g, [3])
    ca = dn.certificate_from_witness(g, a, range(6), dn.DensityKind.SIGMA)
    cb = dn.certificate_from_witness(g, b, range(6), dn.DensityKind.SIGMA)
    combined = dn.combine_certificates(g, a, b, ca, cb)
    assert combined.bound <= ca.bound + cb.bound
    assert combined.bound == Fraction(2, 6)


def test_combine_certificates_refuses_what_it_cannot_convolve():
    g = gr.cyclic(6)
    a, b = gr.subset(g, [0]), gr.subset(g, [3])
    ca = dn.certificate_from_witness(g, a, range(6))
    refused = [
        ("^combination requires two sigma certificates$",
         dn.certificate_from_witness(g, b, range(6), dn.DensityKind.SIGMA_R)),
        ("^combination requires measure witnesses$", dataclasses.replace(ca, witness=frozenset({0}))),
        ("^witness carrier mismatch$", dataclasses.replace(ca, witness=ms.dirac(0, gr.cyclic(3)))),
    ]
    for message, cb in refused:
        with pytest.raises(SoldensError, match=message) as e:
            dn.combine_certificates(g, a, b, ca, cb)
        assert e.value.kind == BAD_INPUT
