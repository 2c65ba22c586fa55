"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

These are deliberately heavier than the unit tests; the whole file should
stay under a few minutes.
"""

import random
from fractions import Fraction

import soldens.cli as cli
import soldens.densities as dn
import soldens.games as gm
import soldens.groups as gr
import soldens.partitions as pt
import soldens.perms as pm
import soldens.words as wd
import soldens.zline as zl


def catalog_order_6():
    return [gr.cyclic(n) for n in range(2, 7)] + [gr.symmetric(3)]


def catalog_order_8():
    return catalog_order_6() + [
        gr.cyclic(7),
        gr.cyclic(8),
        gr.dihedral(4),
        gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
        gr.direct_product(gr.cyclic(2), gr.cyclic(4)),
        gr.direct_product(gr.cyclic(2), gr.direct_product(gr.cyclic(2), gr.cyclic(2))),
    ]


def all_subsets(g):
    for bits in range(2 ** g.order):
        yield gr.subset(g, [i for i in range(g.order) if bits >> i & 1])


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_bruteforce_matches_closed_form():
    checked = 0
    for g in catalog_order_6():
        for a in all_subsets(g):
            for kind in dn.ALL_KINDS:
                value, witness = dn.density_bruteforce(g, a, kind)
                assert value == dn.density_closed_form(g, a, kind), (g.label, a.indices(), kind)
                assert witness
                checked += 1
    report(1, f"brute-force density equals |A|/|G| for all 5 kinds ({checked} cases)")


def test_criterion_2_minimax_chain():
    checked = 0
    for g in catalog_order_8():
        for a in all_subsets(g):
            value, minimax, maximin = gm.sigma_R_via_game(g, a)
            closed = dn.density_closed_form(g, a)
            assert value == maximin.value == closed, (g.label, a.indices())
            if a.members:
                fam = [gr.left_translate(g, x, a).members for x in g.elements()]
                assert gm.intersection_number(fam) == closed
            checked += 1
    report(2, f"minimax = maximin = intersection number = closed form ({checked} cases)")


def test_criterion_3_extremal_haar_collapse():
    exact_patterns = [
        "is12", "si12", "is21", "si21", "iS12", "Is12", "sI21", "Si12",
        "iss213", "iss123", "ssi123", "sii123", "iis123", "Ssi231", "ssI132",
    ]
    interval_patterns = ["sis123", "isi132", "sis213"]
    checked = 0
    for g in catalog_order_6():
        for a in all_subsets(g):
            target = dn.density_closed_form(g, a)
            for p in exact_patterns:
                shape, value = gm.eval_extremal(gm.ExtremalPattern.parse(p), g, a)
                assert shape == "exact" and value == target, (g.label, p, a.indices())
                checked += 1
            for p in interval_patterns:
                shape, (lo, hi) = gm.eval_extremal(gm.ExtremalPattern.parse(p), g, a)
                assert shape == "interval" and lo <= target <= hi, (g.label, p, a.indices())
                checked += 1
    report(3, f"mixed extremal patterns collapse to |A|/|G| ({checked} evaluations; "
              "double-alternation patterns bracket it)")


def test_criterion_4_cov_pack_chain():
    tight_seen = None
    for g in catalog_order_8():
        rep = pt.verify_prop122(g)  # raises on any chain violation
        if g.label == "cyclic:6":
            for a, c, p, cap in rep["tight"]:
                if a == [0, 1]:
                    assert (c, p, cap) == (2, 3, 3)
                    tight_seen = (a, c, p, cap)
    assert tight_seen is not None
    report(4, f"cov(AA^-1) <= pack(A) <= |G|/|A| everywhere; tight at cyclic 6 {tight_seen}")


def test_criterion_5_partition_theorems():
    for g in catalog_order_8():
        for n in (2, 3):
            verdict = pt.verify_thm137(g, n)
            assert verdict.passed, (g.label, n)
    assert [pt.thm139_bound(n) for n in (2, 3, 4)] == [2, 3, 7]
    report(5, "every 2/3-cell partition has a cell with cov(A A^-1) <= n; "
              "formula bounds are 2, 3, 7")


def test_criterion_6_odd_group_equivalence():
    groups = [gr.cyclic(n) for n in range(2, 10)] + [gr.cyclic(15), gr.symmetric(3), gr.dihedral(4)]
    odd_labels, witnesses = [], []
    for g in groups:
        rep = pt.odd_group_check(g)  # raises if the equivalence fails
        if rep["odd"]:
            odd_labels.append(g.label)
        else:
            assert rep["witness"] is not None
            witnesses.append(g.label)
    assert odd_labels == ["cyclic:3", "cyclic:5", "cyclic:7", "cyclic:9", "cyclic:15"]
    report(6, f"oddness <=> 2-partition property on {len(groups)} groups "
              f"(odd: {odd_labels}; witnesses on the rest)")


def test_criterion_7_primes_table():
    rows = zl.primes_bound_table(6, verify_horizon=10 ** 6)
    assert [(r["n_k"], r["phi"]) for r in rows] == [
        (2, 1), (6, 2), (30, 8), (210, 48), (2310, 480), (30030, 5760)]
    bounds = [r["bound"] for r in rows]
    assert all(bounds[i] > bounds[i + 1] for i in range(1, 5))
    assert bounds[5] < Fraction(39, 100)
    for r in rows[:5]:
        assert r["empirical_max"] <= r["k"] + 2 * r["phi"]
    report(7, "primorial table exact; bounds strictly decreasing, k=6 bound "
              f"{bounds[5]} < 0.39; window maxima within bound up to 10^6")


def test_criterion_8_free_group_certificates():
    # counts are nondecreasing in n, so checking n = 8 exhausts all n <= 8
    for y in wd.all_reduced_words(12):
        assert wd.fgroup_row_count(y, 8, cross_check=False) <= 1
    # full structural-vs-direct cross-check at a shorter horizon
    for y in wd.all_reduced_words(7):
        for n in range(1, 9):
            assert wd.fgroup_row_count(y, n) <= 1
    rep = wd.fgroup_nonsubadditivity_certificate(8, check_len=8)
    for cert in (rep["cert_class_a"], rep["cert_class_b"]):
        assert cert.bound == Fraction(1, 8) and cert.scope == "EXACT"
    assert rep["union_is_group"] and rep["union_density"] == 1
    report(8, "row counts <= 1 exhaustively to length 12; EXACT certificates "
              "sigma^R <= 1/8 for both halves of a partition of the whole group")


def test_criterion_9_conjugation_witnesses():
    rng = random.Random(20260823)
    for trial in range(100):
        perms = []
        for _ in range(rng.randint(1, 4)):
            pts = rng.sample(range(30), rng.randint(2, 5))
            mapping = {p: q for p, q in zip(pts, pts[1:] + pts[:1])}
            perms.append(pm.perm(mapping))
        if trial % 2 == 0:
            target = pm.tail(rng.randint(5, 50))
        else:
            m = rng.randint(2, 5)
            target = pm.residue_class(rng.randrange(m), m)
        res = pm.conjugation_witness(perms, target)
        for c in res["conjugates"]:
            assert all(x in target for x in c.support())
    report(9, "100 randomized permutation sets conjugated into tail and "
              "residue-class targets, support inclusion verified")


def test_criterion_10_zline_battery():
    rng = random.Random(16)
    # 50 random ZSets: interval estimate within 1/10, delta containment
    for _ in range(50):
        m = rng.randint(2, 10)
        residues = rng.sample(range(m), rng.randint(1, m))
        patch_budget = rng.randint(0, m)
        pts = rng.sample(range(10 * m), patch_budget) if patch_budget else []
        a = zl.zset(m, residues, add=[p for p in pts if p % m not in residues],
                    remove=[p for p in pts if p % m in residues])
        est, _ = zl.folner_density(lambda x: x in a, 10 * m)
        assert abs(est - float(zl.dstar(a))) <= 0.1 + 1e-12, a
        delta = zl.delta_eps(a, zl.dstar(a))
        assert 0 in delta.residues  # contains mZ
    # 25 periodic pairs: jin bound and lemma coverage
    applicable = boundary = 0
    for _ in range(25):
        ma, mb = rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4, 6])
        a = zl.zset(ma, rng.sample(range(ma), rng.randint(1, ma)))
        b = zl.zset(mb, rng.sample(range(mb), rng.randint(1, mb)))
        rep = zl.jin_witness(a, b)  # asserts |F| <= ceil(1/(d* d*)) internally
        assert len(rep["f"]) <= rep["bound"]
        check = zl.lemma163_check(a, b)
        if zl.dstar(a) + zl.dstar(b) > 1:
            assert check["applicable"]
            applicable += 1
    evens = zl.zset(2, [0])
    assert not zl.lemma163_check(evens, evens)["applicable"]
    boundary += 1
    report(10, f"50 ZSets within 1/10 of d*; delta containment holds; 25 jin "
               f"pairs within bound ({applicable} lemma-applicable); 2Z boundary not applicable")


def test_criterion_11_difference_power_subgroup():
    groups = catalog_order_8() + [
        gr.cyclic(9), gr.cyclic(10), gr.cyclic(11), gr.cyclic(12),
        gr.dihedral(5), gr.dihedral(6),
        gr.direct_product(gr.cyclic(3), gr.cyclic(3)),
        gr.direct_product(gr.cyclic(2), gr.cyclic(6)),
    ]
    checked = 0
    for g in groups:
        for a in all_subsets(g):
            if not a.members:
                continue
            n = -(-g.order // len(a))
            if n > 3:
                continue
            sub, exponent, index = pt.difference_power_subgroup(g, a, n)
            assert exponent <= 4 ** (n - 1) and index <= n
            checked += 1
    report(11, f"iterated difference sets stabilize to subgroups of index <= n "
               f"at exponent <= 4^(n-1) ({checked} cases, |G| <= 12)")


def test_criterion_12_invariant_battery():
    checks = cli.verify_all(max_order=8, seed=0)
    failed = [c for c in checks if not c["ok"]]
    assert not failed, failed
    report(12, f"invariant battery green: {', '.join(c['name'] for c in checks)}")
