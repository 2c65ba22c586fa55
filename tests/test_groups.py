import importlib
import inspect
import json
import pkgutil
from itertools import product
from pathlib import Path

import pytest

import soldens
import soldens.cli as cli
import soldens.densities as dn
import soldens.games as gm
import soldens.groups as gr
import soldens.measures as ms
import soldens.partitions as pt
from soldens.errors import BAD_INPUT, SIZE_GUARD, SoldensError


@pytest.fixture
def fresh_builds():
    """build_group's cache emptied, so that every admitted spec builds its tables."""
    gr._built.cache_clear()
    return gr._built


def test_cyclic_table_and_inverse():
    g = gr.cyclic(5)
    assert g.order == 5
    assert g.mul(3, 4) == 2
    assert g.inv(2) == 3
    assert g.inverse[0] == 0


def test_validate_table_reports_least_violation():
    # break associativity-free structure: swap one entry of cyclic 3
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    bad = gr.validate_table(table)
    assert bad is not None
    assert bad.axiom in ("inverse", "associativity")

    assert gr.validate_table([[0, 1], [1, 0]]) is None
    assert gr.validate_table([[1, 0], [0, 1]]).axiom == "identity"
    assert gr.validate_table([[0, 5], [1, 0]]).axiom == "range"


def test_from_table_rejects_bad_and_caps_order():
    with pytest.raises(gr.GroupError):
        gr.from_table([[0, 1], [1, 1]])
    with pytest.raises(gr.GroupError):
        gr.cyclic(65)


def test_dihedral_structure():
    d4 = gr.dihedral(4)
    assert d4.order == 8
    r, s = 1, 4  # rotation, reflection
    # s r s = r^-1
    assert d4.mul(d4.mul(s, r), s) == d4.inverse[r]
    assert not gr.is_normal(d4, gr.subgroup_generated(d4, gr.subset(d4, [s])))
    assert gr.is_normal(d4, gr.subgroup_generated(d4, gr.subset(d4, [r])))


def test_symmetric_3_is_nonabelian_order_6():
    s3 = gr.symmetric(3)
    assert s3.order == 6
    assert any(s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6))


def test_direct_product_and_quotient():
    g = gr.direct_product(gr.cyclic(2), gr.cyclic(3))
    assert g.order == 6
    n = gr.subgroup_generated(g, gr.subset(g, [1]))  # the cyclic(3) factor
    assert len(n) == 3
    hom = gr.quotient_map(g, n)
    assert hom.target.order == 2
    assert hom.apply(0) == 0
    pre = hom.preimage(gr.subset(hom.target, [0]))
    assert pre.members == n.members


def test_translates_and_difference_set():
    g = gr.cyclic(6)
    a = gr.subset(g, [0, 1])
    assert gr.left_translate(g, 2, a).indices() == [2, 3]
    assert gr.translate(g, a, 0, 5).indices() == [0, 5]
    assert gr.translate(g, a, 2, 5).indices() == [1, 2]
    assert gr.difference_set(g, a).indices() == [0, 1, 5]
    assert gr.invert_set(g, a).indices() == [0, 5]


def test_subgroup_predicates():
    g = gr.cyclic(8)
    h = gr.subset(g, [0, 4])
    assert gr.is_subgroup(g, h)
    assert not gr.is_subgroup(g, gr.subset(g, [0, 3]))


def test_a_group_prints_its_order_and_flattened_table():
    g = gr.symmetric(3)
    data = json.loads(cli.dumps(g))
    assert data["order"] == 6 and data["table"] == [v for row in g.table for v in row]


def test_from_table_refuses_an_order_over_the_cap():
    n = gr.DEFAULT_ORDER_CAP + 1
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(gr.GroupError, match=f"^group order {n} exceeds cap {n - 1}$") as e:
        gr.from_table(table)
    assert e.value.kind == SIZE_GUARD


def test_build_group_specs():
    assert gr.build_group("cyclic:7").order == 7
    assert gr.build_group("s3").label == "symmetric:3"
    assert gr.build_group("d4").order == 8
    assert gr.build_group("cyclic:2*cyclic:4").order == 8
    with pytest.raises(gr.GroupError, match="^unknown group kind 'weird'$") as e:
        gr.build_group("weird:9")
    assert e.value.kind == BAD_INPUT
    with pytest.raises(gr.GroupError, match="symmetric group supported for 1 <= n <= 5"):
        gr.build_group("symmetric:0")


def test_build_group_product_respects_order_cap():
    # each factor fits the cap, the product does not
    with pytest.raises(gr.GroupError, match="^product order exceeds cap$") as e:
        gr.build_group("cyclic:8*cyclic:16")
    assert e.value.kind == SIZE_GUARD
    assert gr.build_group("cyclic:8*cyclic:8").order == gr.DEFAULT_ORDER_CAP == 64


def test_build_group_checks_order_before_building_tables(monkeypatch, fresh_builds):
    built = []

    def spy(table, label=""):
        built.append(label)
        return real(table, label)

    real = gr.from_table
    monkeypatch.setattr(gr, "from_table", spy)
    over_cap = [("dihedral:800", "group order 1600 exceeds cap 64"),
                ("cyclic:65", "group order 65 exceeds cap 64"),
                ("symmetric:5", "group order 120 exceeds cap 64"),
                ("symmetric:6", "group order 6! exceeds cap 64"),
                ("symmetric:10000000000", "group order 10000000000! exceeds cap 64")]
    for spec, message in over_cap:
        with pytest.raises(gr.GroupError, match=message) as e:
            gr.build_group(spec)
        assert e.value.kind == SIZE_GUARD
    assert built == []
    # the cap itself is admitted, and its table is built once
    assert gr.build_group("cyclic:64").order == 64
    assert built == ["cyclic:64"]


def test_build_group_checks_the_product_before_building_factor_tables(monkeypatch, fresh_builds):
    built = []

    def spy(table, label=""):
        built.append(label)
        return real(table, label)

    real = gr.from_table
    monkeypatch.setattr(gr, "from_table", spy)
    for spec in ("cyclic:64*cyclic:64", "cyclic:8*cyclic:16", "cyclic:8*cyclic:8*cyclic:2"):
        with pytest.raises(gr.GroupError, match="^product order exceeds cap$") as e:
            gr.build_group(spec)
        assert e.value.kind == SIZE_GUARD
    # a bad factor anywhere is named before the product is weighed
    for spec, message in (("cyclic:65*cyclic:2", "^group order 65 exceeds cap 64$"),
                          ("cyclic:64*cyclic:64*weird:1", "^unknown group kind 'weird'$")):
        with pytest.raises(gr.GroupError, match=message):
            gr.build_group(spec)
    assert built == []
    # an admitted product builds its factors, nested to the right
    label = "(cyclic:2)x((cyclic:2)x(cyclic:2))"
    assert gr.build_group("cyclic:2*cyclic:2*cyclic:2").label == label
    assert built == ["cyclic:2"] * 3 + ["(cyclic:2)x(cyclic:2)", label]


def test_build_group_builds_each_parsed_spec_once(fresh_builds):
    s3 = gr.build_group("s3")
    assert gr.build_group(" S3 ") is s3 and gr.build_group("symmetric:3") is s3
    assert gr.build_group("cyclic:2*cyclic:4") is gr.build_group("cyclic:2*cyclic:4")
    assert fresh_builds.cache_info().currsize == 2


def test_a_refused_spec_is_refused_alike_every_time_and_never_cached(fresh_builds):
    refused = [("weird:9", "^unknown group kind 'weird'$", BAD_INPUT),
               ("cyclic:x", "^cannot parse group spec 'cyclic:x'$", BAD_INPUT),
               ("cyclic:0", "^cyclic order must be positive$", BAD_INPUT),
               ("cyclic:65", "^group order 65 exceeds cap 64$", SIZE_GUARD),
               ("symmetric:6", "^group order 6! exceeds cap 64$", SIZE_GUARD),
               ("cyclic:8*cyclic:16", "^product order exceeds cap$", SIZE_GUARD)]
    for spec, message, kind in refused * 3:
        with pytest.raises(gr.GroupError, match=message) as e:
            gr.build_group(spec)
        assert e.value.kind == kind
    assert fresh_builds.cache_info().currsize == 0


def test_the_build_cache_stays_within_its_bound(fresh_builds):
    # order-1 factors give infinitely many admissible specs
    for k in range(1, gr.MAX_CACHED_GROUPS + 10):
        assert gr.build_group("*".join(["cyclic:1"] * k)).order == 1
    assert fresh_builds.cache_info().currsize == gr.MAX_CACHED_GROUPS


def test_no_result_depends_on_how_or_when_a_group_was_built(fresh_builds):
    built = gr.build_group("cyclic:4")
    fresh_builds.cache_clear()  # the next build makes a new object, equal by value
    groups = [gr.cyclic(4), built, gr.build_group("cyclic:4")]
    assert len(set(map(id, groups))) == 3
    for g, h in product(groups, repeat=2):
        a, b = gr.subset(g, [0, 1]), gr.subset(h, [1, 2])
        assert a.union(b) == gr.subset(g, [0, 1, 2])
        assert ms.convolve(ms.dirac(1, g), ms.dirac(2, h)) == ms.dirac(3, g)
        ca = dn.certificate_from_witness(h, a, [0])
        cb = dn.certificate_from_witness(h, b, [0])
        assert dn.combine_certificates(g, a, b, ca, cb).bound == 1


def test_subsets_of_different_groups_do_not_combine():
    a, b = gr.subset(gr.cyclic(6), [1]), gr.subset(gr.symmetric(3), [2])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(gr.GroupError, match="^subsets of different groups$") as e:
            x.union(y)
        assert e.value.kind == BAD_INPUT


def test_no_kernel_reads_a_subset_against_another_groups_table():
    s3, c4, c6 = gr.symmetric(3), gr.cyclic(4), gr.cyclic(6)
    foreign = gr.subset(c4, [0, 1])
    calls = [
        lambda: dn.density_bruteforce(s3, foreign),
        lambda: ms.sup_translates(ms.haar_uniform(s3), foreign, "left"),
        lambda: dn.certificate_from_witness(s3, foreign, [0]),
        lambda: dn.density_bruteforce(c4, gr.subset(c6, [5])),
        lambda: pt.cov(s3, foreign),
    ]
    for call in calls:
        with pytest.raises(gr.GroupError, match="^subsets of different groups$") as e:
            call()
        assert e.value.kind == BAD_INPUT


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6"])
def test_closed_form_difference_set_and_subgroup_test_refuse_a_subset_of_another_group(spec):
    # cyclic:6 has the order of s3, so only its table tells the two apart
    s3, foreign = gr.symmetric(3), gr.subset(gr.build_group(spec), [0, 1])
    for call in (lambda: dn.density_closed_form(s3, foreign),
                 lambda: gr.difference_set(s3, foreign), lambda: gr.is_subgroup(s3, foreign)):
        with pytest.raises(gr.GroupError, match="^subsets of different groups$") as e:
            call()
        assert e.value.kind == BAD_INPUT


def _carrier_calls(s3, own, foreign):
    """Every public function that takes a group and a subset, as (function,
    call): call passes foreign in one subset position, with s3 as the group
    and own, a subset of s3, in any other."""
    cert = dn.certificate_from_witness(s3, own, [0])
    return [
        (gr.check_carrier, lambda: gr.check_carrier(s3, foreign)),
        (gr.translate_masks, lambda: gr.translate_masks(s3, foreign, "left")),
        (gr.translate, lambda: gr.translate(s3, foreign, 1, 2)),
        (gr.left_translate, lambda: gr.left_translate(s3, 1, foreign)),
        (gr.invert_set, lambda: gr.invert_set(s3, foreign)),
        (gr.product_set, lambda: gr.product_set(s3, foreign, own)),
        (gr.product_set, lambda: gr.product_set(s3, own, foreign)),
        (gr.difference_set, lambda: gr.difference_set(s3, foreign)),
        (gr.is_inner_invariant, lambda: gr.is_inner_invariant(s3, foreign)),
        (gr.is_subgroup, lambda: gr.is_subgroup(s3, foreign)),
        (gr.subgroup_generated, lambda: gr.subgroup_generated(s3, foreign)),
        (gr.is_normal, lambda: gr.is_normal(s3, foreign)),
        (gr.quotient_map, lambda: gr.quotient_map(s3, foreign)),
        (dn.density_closed_form, lambda: dn.density_closed_form(s3, foreign)),
        (dn.density_bruteforce, lambda: dn.density_bruteforce(s3, foreign)),
        (dn.certificate_from_witness, lambda: dn.certificate_from_witness(s3, foreign, [0])),
        (dn.combine_certificates, lambda: dn.combine_certificates(s3, foreign, own, cert, cert)),
        (dn.combine_certificates, lambda: dn.combine_certificates(s3, own, foreign, cert, cert)),
        (gm.sigma_R_via_game, lambda: gm.sigma_R_via_game(s3, foreign)),
        (gm.sigma_via_game, lambda: gm.sigma_via_game(s3, foreign)),
        (gm.eval_extremal, lambda: gm.eval_extremal(gm.ExtremalPattern.parse("is12"), s3, foreign)),
        (pt.cov, lambda: pt.cov(s3, foreign)),
        (pt.pack, lambda: pt.pack(s3, foreign)),
        (pt.difference_power_subgroup, lambda: pt.difference_power_subgroup(s3, foreign, 6)),
        (pt.thm43_search, lambda: pt.thm43_search(s3, foreign)),
    ]


# public functions with a group parameter whose other parameters hold no subset
_TAKES_NO_SUBSET = {
    gr.subset,  # indices, checked one by one
    gr.difference_mask,  # an int mask, documented as unchecked
    pt.verify_thm137, pt.verify_thm139, pt.protasov_search,  # an int n
}


@pytest.mark.parametrize("points", [[0, 1], []])
@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6"])
def test_every_call_of_a_group_and_a_subset_refuses_a_subset_of_another_group(spec, points):
    # cyclic:6 has the order of s3, so only its table tells the two apart
    s3 = gr.symmetric(3)
    foreign = gr.subset(gr.build_group(spec), points)
    for function, call in _carrier_calls(s3, gr.subset(s3, [0, 1]), foreign):
        try:
            call()
        except SoldensError as e:
            assert (type(e), str(e), e.kind) == (gr.GroupError, "subsets of different groups",
                                                 BAD_INPUT), function.__name__
        else:
            pytest.fail(f"{function.__name__} accepted a subset of {spec}")


def test_the_carrier_table_lists_every_function_of_a_group_and_a_subset():
    s3 = gr.symmetric(3)
    own = gr.subset(s3, [0, 1])
    listed = {function for function, _ in _carrier_calls(s3, own, own)}  # none is called
    found = set()
    for info in pkgutil.iter_modules(soldens.__path__):
        module = importlib.import_module(f"soldens.{info.name}")
        for name, function in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(function)
                    and function.__module__ == module.__name__):
                params = inspect.signature(function).parameters
                if "group" in params and len(params) > 1:
                    found.add(function)
    assert not listed & _TAKES_NO_SUBSET
    assert {f.__qualname__ for f in found - _TAKES_NO_SUBSET - listed} == set()  # missing rows
    assert listed <= found


def test_a_suite_builds_each_distinct_spec_once(monkeypatch, capsys, fresh_builds):
    built = []

    def spy(table, label=""):
        built.append(label)
        return real(table, label)

    real = gr.from_table
    monkeypatch.setattr(gr, "from_table", spy)
    monkeypatch.chdir(Path(__file__).with_name("data"))
    cli.run(["suite", "wire_suite.json"])
    assert json.loads(capsys.readouterr().out)["suite"] == "wire-format"
    # the suite names a group 11 times, 5 of them distinct
    assert sorted(built) == ["cyclic:3", "cyclic:4", "cyclic:6", "dihedral:3", "symmetric:3"]


def test_conjugacy_and_inner_invariance():
    s3 = gr.symmetric(3)
    # the transpositions form one conjugacy class
    transpositions = [g for g in range(6) if s3.mul(g, g) == 0 and g != 0]
    assert gr.is_inner_invariant(s3, gr.subset(s3, transpositions))
    assert not gr.is_inner_invariant(s3, gr.subset(s3, [transpositions[0]]))


def test_subset_masks_and_indices_are_range_checked():
    g = gr.cyclic(5)
    # a non-int mask, a negative mask, a bit at or above the order
    for mask in (3.0, "3", None, frozenset({1}), -1, 1 << 5, (1 << 6) - 1):
        with pytest.raises(gr.GroupError) as e:
            gr.GroupSubset(g, mask)
        assert e.value.kind == BAD_INPUT
    assert gr.GroupSubset(g, (1 << 5) - 1).indices() == [0, 1, 2, 3, 4]
    # checked before any shift: 1 << -1 would be a bare ValueError (exit 1)
    for indices in ([-1], [g.order], [0, 7], [1.0]):
        with pytest.raises(gr.GroupError) as e:
            gr.subset(g, indices)
        assert e.value.kind == BAD_INPUT


def test_indices_read_every_byte_of_the_mask():
    g = gr.cyclic(64)
    for idx in ([], [63], [0, 7, 8, 15, 16, 40, 63], list(range(64))):
        a = gr.subset(g, idx)
        assert a.indices() == idx and list(a) == idx and a.members == frozenset(idx)
        assert len(a) == len(idx) and all(i in a for i in idx)
