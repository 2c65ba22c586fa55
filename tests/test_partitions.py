import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import soldens.cli as cli
import soldens.groups as gr
import soldens.partitions as pt

PARTITIONS_PINNED = Path(__file__).parent / "data" / "partitions_pinned.json"


def test_cov_examples():
    c6 = gr.cyclic(6)
    assert pt.cov(c6, gr.subset(c6, [0, 1])) == (3, (0, 2, 4))
    assert pt.cov(c6, gr.subset(c6, range(6)))[0] == 1
    h = gr.subset(c6, [0, 3])
    assert pt.cov(c6, h)[0] == c6.order // len(h)
    with pytest.raises(pt.PartitionError):
        pt.cov(c6, gr.subset(c6, []))


def test_pack_examples():
    c6 = gr.cyclic(6)
    assert pt.pack(c6, gr.subset(c6, [0, 1])) == (3, (0, 2, 4))
    assert pt.pack(c6, gr.subset(c6, range(6)))[0] == 1
    assert pt.pack(c6, gr.subset(c6, [2]))[0] == 6


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6"])
def test_partitions_refuse_a_subset_of_another_group(spec):
    # cyclic:6 has the order of s3, so only its table tells the two apart
    s3, foreign = gr.symmetric(3), gr.subset(gr.build_group(spec), [0, 1, 2])
    for call in (lambda: pt.pack(s3, foreign), lambda: pt.thm43_search(s3, foreign),
                 lambda: pt.difference_power_subgroup(s3, foreign, 2)):
        with pytest.raises(gr.GroupError, match="^subsets of different groups$") as e:
            call()
        assert e.value.kind == "bad-input"


def test_prop122_chain_on_cyclic6():
    rep = pt.verify_prop122(gr.cyclic(6))
    assert rep["checked"] == 63
    assert any(a == [0, 1] for a, *_ in rep["tight"])
    with pytest.raises(pt.PartitionError) as info:
        pt.verify_prop122(gr.direct_product(gr.cyclic(4), gr.cyclic(4)))
    assert info.value.kind == "size-guard"


def test_thm139_bound_formula():
    assert [pt.thm139_bound(n) for n in (1, 2, 3, 4)] == [1, 2, 3, 7]


def test_partition_verifiers():
    c6 = gr.cyclic(6)
    v = pt.verify_thm137(c6, 2)
    assert v.passed and v.bound == 2
    v = pt.verify_thm139(gr.symmetric(3), 3)
    assert v.passed and v.bound == 3
    assert v.partitions_checked > 0
    with pytest.raises(pt.PartitionError) as info:
        pt.verify_thm137(gr.cyclic(6), 5)
    assert info.value.kind == "size-guard"


def test_the_thm139_bound_waits_for_the_scan_guards(monkeypatch, capsys):
    bounded = []

    def spy(n):
        bounded.append(n)
        return real(n)

    real = pt.thm139_bound
    monkeypatch.setattr(pt, "thm139_bound", spy)
    c2, scan_cap = gr.cyclic(2), "partition scan guarded to n <= 4, |G| <= 8"
    for group, n, message, kind in ((c2, 0, "cell count must be >= 1", "bad-input"),
                                    (c2, -3, "cell count must be >= 1", "bad-input"),
                                    (c2, 2000, scan_cap, "size-guard"),
                                    (gr.cyclic(9), 2, scan_cap, "size-guard")):
        with pytest.raises(pt.PartitionError) as info:
            pt.verify_thm139(group, n)
        assert (str(info.value), info.value.kind) == (message, kind)
    # the CLI refuses --cells 2000 as fast for 13.9 as for 13.7
    argv = ["partitions", "verify", "--group", "cyclic:2", "--theorem", "13.9", "--cells", "2000"]
    assert cli.run(argv) == 3
    assert json.loads(capsys.readouterr().out) == {"error": scan_cap, "kind": "size-guard"}
    assert bounded == []
    assert pt.verify_thm139(c2, 2).bound == 2 and bounded == [2]


def test_scans_solve_cov_once_per_distinct_difference_set(monkeypatch):
    # the 1094 partitions of Z/8 into <= 3 cells hold 255 distinct cells but
    # only 11 distinct difference sets AA^-1
    solved = []

    def cov(group, a):
        solved.append(a.mask)
        return inner(group, a)

    inner = pt.cov
    monkeypatch.setattr(pt, "cov", cov)
    v = pt.verify_thm137(gr.cyclic(8), 3)
    assert (v.partitions_checked, v.worst_best_cov) == (1094, 2)
    assert len(solved) == len(set(solved)) == 11
    solved.clear()
    pt.verify_prop122(gr.cyclic(8))
    assert len(solved) == len(set(solved)) == 11


def test_prop122_packs_once_per_distinct_difference_set(monkeypatch):
    # pack(A) depends on AA^-1 alone; Z/8 has 11 distinct difference sets
    # and D4 has 23, among 255 nonempty subsets each
    packed = []

    def pack(group, a):
        packed.append(gr.difference_mask(group, a.mask))
        return inner(group, a)

    inner = pt.pack
    monkeypatch.setattr(pt, "pack", pack)
    for g, calls in ((gr.cyclic(8), 11), (gr.dihedral(4), 23)):
        packed.clear()
        pt.verify_prop122(g)
        assert len(packed) == len(set(packed)) == calls


# the subset scans are guarded before their 2^|G|-slot difference table exists
@pytest.mark.parametrize("solve, order", [
    (pt.pack, pt.MAX_PACK_ORDER + 1), (pt.cov, pt.MAX_COVER_POINTS + 1),
    pytest.param(lambda g, a: pt.verify_prop122(g), pt.MAX_PROP122_ORDER + 1, id="prop122-11"),
    pytest.param(lambda g, a: pt.verify_thm137(g, 2), pt.MAX_SCAN_ORDER + 1, id="scan-9"),
    pytest.param(lambda g, a: pt.odd_group_check(g), pt.MAX_ODD_CHECK_ORDER + 1, id="odd-17")])
def test_cov_and_pack_size_guards_come_before_any_mask(monkeypatch, solve, order):
    def built(*args):
        raise AssertionError("a mask was built")

    g = gr.cyclic(order)
    a = gr.subset(g, [0, 1])
    monkeypatch.setattr(gr, "difference_mask", built)
    monkeypatch.setattr(gr, "translate_masks", built)
    monkeypatch.setattr(gr, "difference_table", built)
    with pytest.raises(pt.PartitionError) as info:
        solve(g, a)
    assert info.value.kind == "size-guard"


def test_the_scan_guards_name_their_caps():
    big = gr.cyclic(pt.MAX_PACK_ORDER + 1)
    cases = [(lambda: pt.verify_prop122(gr.cyclic(11)), "exhaustive subsets guarded to |G| <= 10"),
             (lambda: pt.verify_thm137(gr.cyclic(9), 2), "partition scan guarded to n <= 4, |G| <= 8"),
             (lambda: pt.protasov_search(gr.cyclic(4), 5), "partition scan guarded to n <= 4, |G| <= 8"),
             (lambda: pt.odd_group_check(gr.cyclic(17)), "2-partition scan guarded to |G| <= 16"),
             (lambda: pt.pack(big, gr.subset(big, [0])), "pack guarded to |G| <= 24")]
    for solve, message in cases:
        with pytest.raises(pt.PartitionError) as info:
            solve()
        assert str(info.value) == message and info.value.kind == "size-guard"


def _cov_by_difference_size(group, d):
    # a stand-in for cov whose size is large where AA^-1 is small, so that
    # the scans reach the exits no true cov reaches
    size = 8 - len(d)
    return size, tuple(range(size))


def test_protasov_search_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(pt, "cov", _cov_by_difference_size)
    assert pt.protasov_search(gr.cyclic(6), 3) == {
        "counterexample": [[0, 1], [2, 3], [4, 5]],
        "covs": [(5, (0, 1, 2, 3, 4))] * 3}


def test_partition_verifier_names_its_worst_partition_on_failure(monkeypatch):
    monkeypatch.setattr(pt, "cov", _cov_by_difference_size)
    with pytest.raises(pt.PartitionError) as info:
        pt.verify_thm137(gr.cyclic(6), 3)
    assert str(info.value) == \
        "partition ((0, 3), (1, 4), (2, 5)) has every cov(A A^-1) > 3 on cyclic:6"


def test_protasov_search_finds_nothing_on_small_groups():
    assert pt.protasov_search(gr.cyclic(6), 2) is None
    assert pt.protasov_search(gr.symmetric(3), 2) is None
    assert pt.protasov_search(gr.cyclic(5), 1) is None


def test_odd_group_check():
    assert pt.odd_group_check(gr.cyclic(3))["odd"]
    rep = pt.odd_group_check(gr.cyclic(4))
    assert not rep["odd"] and rep["witness"] == ([0, 1], [2, 3])
    rep2 = pt.odd_group_check(gr.cyclic(2))
    assert not rep2["odd"] and rep2["witness"] == ([0], [1])
    assert pt.odd_group_check(gr.symmetric(3))["witness"] == ([0, 1, 2], [3, 4, 5])


def test_difference_power_subgroup():
    c6 = gr.cyclic(6)
    sub, exponent, index = pt.difference_power_subgroup(c6, gr.subset(c6, [0, 2, 4]), 2)
    assert exponent == 1 and index == 2
    sub, exponent, index = pt.difference_power_subgroup(c6, gr.subset(c6, [0, 3]), 3)
    assert index == 3 and exponent == 1
    sub, exponent, index = pt.difference_power_subgroup(c6, gr.subset(c6, [0, 1, 2]), 2)
    assert index == 1 and exponent <= 4
    with pytest.raises(pt.PartitionError):
        pt.difference_power_subgroup(c6, gr.subset(c6, [0]), 2)


def test_difference_power_subgroup_tests_its_subgroup_once(monkeypatch):
    calls = []

    def spy(group, h):
        calls.append(h)
        return is_subgroup(group, h)

    is_subgroup = gr.is_subgroup
    monkeypatch.setattr(gr, "is_subgroup", spy)
    s3 = gr.symmetric(3)
    for a, want in (([0, 1, 2], 1), ([0, 1], 3)):
        calls.clear()
        sub, exponent, index = pt.difference_power_subgroup(s3, gr.subset(s3, a), 3)
        assert index == want and calls == [sub]


def test_thm43_search():
    c6 = gr.cyclic(6)
    rep = pt.thm43_search(c6, gr.subset(c6, [0, 1]))
    assert rep["size"] == 2 and rep["cap"] == 3
    c8 = gr.cyclic(8)
    rep = pt.thm43_search(c8, gr.subset(c8, [0, 4]))
    assert rep["size"] == 4 and rep["tight"]


def _set_partitions(n_elems, max_cells):
    """Every partition of range(n_elems) into <= max_cells cells, as a tuple of
    cell masks: the assignments of cells to elements that open cell j + 1 only
    after cell j."""
    for assign in product(range(max_cells), repeat=n_elems):
        if all(c <= max(assign[:i], default=-1) + 1 for i, c in enumerate(assign)):
            cells = [0] * (max(assign) + 1)
            for i, c in enumerate(assign):
                cells[c] |= 1 << i
            yield tuple(cells)


def test_subadditivity_partition_consequence():
    # in any n-cell partition some cell has density at least 1/n
    g = gr.dihedral(4)
    count = 0
    for cells in _set_partitions(g.order, 3):
        best = max(Fraction(c.bit_count(), g.order) for c in cells)
        assert best >= Fraction(1, len(cells))
        count += 1
    assert count == pt.verify_thm137(g, 3).partitions_checked == 1094


def test_partitions_pinned_corpus():
    # tests/data/partitions_pinned.json was computed by the frozenset cov
    # kernel and the unmemoized scans this code replaced: the printed
    # verify_thm137/verify_thm139/protasov_search results on the order-8
    # catalog for n = 2, 3, and cov/pack of every nonempty subset of C8, D4
    # and S3 and of its difference set. Never regenerate it to make a change
    # pass.
    corpus = json.loads(PARTITIONS_PINNED.read_text())
    scans = {"verify_thm137": pt.verify_thm137, "verify_thm139": pt.verify_thm139,
             "protasov_search": pt.protasov_search}
    assert len(corpus["scans"]) == 72
    for entry in corpus["scans"]:
        g = gr.build_group(entry["group"])
        assert cli.dumps(scans[entry["fn"]](g, entry["n"])) == entry["out"], entry
    assert len(corpus["subsets"]) == 255 + 255 + 63
    for entry in corpus["subsets"]:
        g = gr.build_group(entry["group"])
        a = gr.subset(g, entry["set"])
        d = gr.difference_set(g, a)
        got = {"cov": pt.cov(g, a), "pack": pt.pack(g, a),
               "cov_diff": pt.cov(g, d), "pack_diff": pt.pack(g, d)}
        assert {k: [v[0], list(v[1])] for k, v in got.items()} == \
            {k: entry[k] for k in got}, entry
