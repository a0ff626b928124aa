import pytest
from hypothesis import given, strategies as st

from holobrace.abelian import (
    make_group,
    parse_group,
    reach,
    sylow_decompose,
)
from holobrace.errors import CapacityError, InvalidInputError


def naive_order(group, g):
    """Independent oracle: repeated addition until the identity returns."""
    acc = g
    k = 1
    while acc != group.identity():
        acc = group.add(acc, g)
        k += 1
    return k


def test_make_group_canonical_sorting():
    g = make_group([4, 2])
    assert g.factors == (2, 4)
    assert g.exponents(2) == (1, 2)
    assert g.order == 8


def test_make_group_factors_composites():
    g = make_group([24])
    assert g.factors == (8, 3)
    assert g.order == 24
    odd, two = sylow_decompose(g)
    assert odd.factors == (3,)
    assert two.factors == (8,)


def test_make_group_rank4():
    g = make_group([2, 2, 2, 2])
    assert g.rank(2) == 4
    assert g.order == 16


def test_make_group_rejects_units():
    with pytest.raises(InvalidInputError):
        make_group([1, 4])
    with pytest.raises(InvalidInputError):
        make_group([0])


def test_isomorphic_inputs_identical():
    assert make_group([2, 4]) == make_group([4, 2])
    assert make_group([6]) == make_group([2, 3])
    assert make_group([12, 2]) == make_group([2, 4, 3])


def test_add_neg_examples():
    c8 = make_group([8])
    assert c8.add((5,), (6,)) == (3,)
    assert c8.neg(c8.identity()) == c8.identity()
    g = make_group([2, 4])
    assert g.add((1, 3), (1, 2)) == (0, 1)


def test_add_rejects_mismatched_elements():
    c8 = make_group([8])
    with pytest.raises(InvalidInputError):
        c8.add((5, 1), (1,))
    with pytest.raises(InvalidInputError):
        c8.add((9,), (1,))


def test_element_order_examples():
    c16 = make_group([16])
    assert c16.element_order(c16.identity()) == 1
    assert c16.element_order((1,)) == 16
    g = make_group([2, 8])
    assert g.element_order((1, 2)) == naive_order(g, (1, 2)) == 4


@pytest.mark.parametrize("orders", [[8], [2, 4], [2, 8], [3, 4], [2, 2, 2], [5, 4], [9]])
def test_group_axioms_exhaustive(orders):
    g = make_group(orders)
    elems = list(g.elements())
    ident = g.identity()
    for a in elems:
        assert g.add(a, g.neg(a)) == ident
        assert g.add(a, ident) == a
        for b in elems:
            assert g.add(a, b) == g.add(b, a)
    # associativity on a deterministic sample of triples
    for i, a in enumerate(elems):
        b = elems[(3 * i + 1) % len(elems)]
        c = elems[(7 * i + 2) % len(elems)]
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


@pytest.mark.parametrize("orders", [[8], [2, 4], [12], [2, 2, 2], [16], [3, 8]])
def test_lagrange_and_order_oracle(orders):
    g = make_group(orders)
    for a in g.elements():
        k = g.element_order(a)
        assert g.order % k == 0
        assert k == naive_order(g, a)


def test_element_indexing_roundtrip():
    g = make_group([2, 8, 3])
    elems = list(g.elements())
    assert len(elems) == g.order == 48
    for i, e in enumerate(elems):
        assert g.index(e) == i
        assert g.element_at(i) == e


def test_sylow_decompose_examples():
    odd, two = sylow_decompose(make_group([24]))
    assert odd == make_group([3]) and two == make_group([8])
    odd, two = sylow_decompose(make_group([2, 16]))
    assert odd.order == 1 and two == make_group([2, 16])
    odd, two = sylow_decompose(make_group([3, 2, 4]))
    assert odd == make_group([3]) and two == make_group([2, 4])


def test_parse_group_grammar():
    assert parse_group("c2xc8") == make_group([2, 8])
    assert parse_group("  C2 x C8 ") == make_group([2, 8])
    assert parse_group("[3,2,8]") == make_group([3, 2, 8])
    assert parse_group("c3xc2xc4") == make_group([3, 2, 4])
    for bad in ("", "x2", "c2x", "[,]", "q8"):
        with pytest.raises(InvalidInputError):
            parse_group(bad)


def test_display_names():
    assert make_group([2, 8]).display_name() == "C_2×C_8"
    assert make_group([3, 2, 4]).display_name() == "C_3×C_2×C_4"
    assert make_group([15, 4]).display_name() == "C_15×C_4"


@given(st.lists(st.integers(min_value=2, max_value=64), min_size=1, max_size=4))
def test_make_group_canonical_under_permutation(orders):
    base = make_group(orders)
    assert base == make_group(list(reversed(orders)))
    total = 1
    for q in orders:
        total *= q
    assert base.order == total


@given(st.integers(min_value=2, max_value=96), st.integers(min_value=0, max_value=95))
def test_cyclic_order_formula_matches_oracle(m, k):
    from math import gcd

    g = make_group([m])
    e = tuple(k % q for q in g.factors)  # CRT image of k in prod C_{q_i}
    assert g.element_order(e) == naive_order(g, e)
    assert g.element_order(e) == m // gcd(k % m, m)  # classical cyclic-order formula


def test_reach_closes_and_respects_its_bound():
    # the subgroup of Z/12 generated by 8 and 6 is 2Z/12
    assert reach(0, (8, 6), lambda a, b: (a + b) % 12, 6) == frozenset(range(0, 12, 2))
    with pytest.raises(CapacityError) as err:
        reach(0, (8, 6), lambda a, b: (a + b) % 12, 5)
    assert err.value.cap == 5
