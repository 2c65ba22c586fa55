import json

import pytest

import soldens.cli as cli
import soldens.groups as gr


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
    assert gr.right_translate(g, a, 5).indices() == [0, 5]
    assert gr.translate(g, a, 2, 5).indices() == [1, 2]
    assert gr.difference_set(g, a).indices() == [0, 1, 5]
    assert gr.invert_set(g, a).indices() == [0, 5]


def test_subgroup_predicates():
    g = gr.cyclic(8)
    h = gr.subset(g, [0, 4])
    assert gr.is_subgroup(g, h)
    assert gr.index_of(g, h) == 4
    assert not gr.is_subgroup(g, gr.subset(g, [0, 3]))


def test_json_roundtrip():
    g = gr.symmetric(3)
    again = gr.Group.from_json(cli.dumps(g))
    assert again.table == g.table
    data = json.loads(cli.dumps(g))
    assert data["order"] == 6 and len(data["table"]) == 36


def test_build_group_specs():
    assert gr.build_group("cyclic:7").order == 7
    assert gr.build_group("s3").label == "symmetric:3"
    assert gr.build_group("d4").order == 8
    assert gr.build_group("cyclic:2*cyclic:4").order == 8
    with pytest.raises(gr.GroupError):
        gr.build_group("weird:9")


def test_build_group_product_respects_order_cap():
    # each factor fits the cap, the product does not
    with pytest.raises(gr.GroupError):
        gr.build_group("cyclic:8*cyclic:8", order_cap=32)
    assert gr.build_group("cyclic:8*cyclic:8", order_cap=64).order == 64


def test_build_group_checks_order_before_building_tables(monkeypatch):
    built = []

    def spy(table, label="", order_cap=gr.DEFAULT_ORDER_CAP):
        built.append(label)
        return real(table, label, order_cap)

    real = gr.from_table
    monkeypatch.setattr(gr, "from_table", spy)
    over_cap = [("dihedral:800", 64, "group order 1600 exceeds cap 64"),
                ("cyclic:65", 64, "group order 65 exceeds cap 64"),
                ("symmetric:5", 64, "group order 120 exceeds cap 64"),
                ("s4", 20, "group order 24 exceeds cap 20")]
    for spec, cap, message in over_cap:
        with pytest.raises(gr.GroupError, match=message):
            gr.build_group(spec, order_cap=cap)
    assert built == []
    # a cap above the default is refused, not silently lowered to it
    with pytest.raises(gr.GroupError, match="order_cap 200 exceeds"):
        gr.build_group("cyclic:8", order_cap=200)


def test_conjugacy_and_inner_invariance():
    s3 = gr.symmetric(3)
    # transpositions form one conjugacy class of size 3
    transpositions = [g for g in range(6) if s3.mul(g, g) == 0 and g != 0]
    cls = gr.conjugacy_class(s3, transpositions[0])
    assert cls.members == frozenset(transpositions)
    assert gr.is_inner_invariant(s3, cls)
    assert not gr.is_inner_invariant(s3, gr.subset(s3, [transpositions[0]]))
