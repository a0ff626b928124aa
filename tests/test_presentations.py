from math import gcd

import pytest

from holobrace.abelian import make_group
from holobrace.errors import InvalidInputError
from holobrace.presentations import (
    DIHEDRAL,
    QUATERNION,
    TargetKind,
    admissible_types,
    aut_order,
    family_types,
    parse_kind,
)
from holobrace.regular import list_regular

from subgroup_oracles import classify_kernel, classify_subgroup, hol_elements, hol_from_translation


def abstract_target(family, n, s):
    """Independent model of Q_{2^n s} / D_{2^n s} as pairs (i, j):
    element x^i y^j with i mod 2^{n-1}s, j in {0, 1}."""
    m = (1 << (n - 1)) * s
    half = (1 << (n - 2)) * s

    def mul(a, b):
        i1, j1 = a
        i2, j2 = b
        # y x = x^{-1} y, so x^{i1} y^{j1} x^{i2} y^{j2} = x^{i1 + (-1)^{j1} i2} y^{j1+j2}
        i = (i1 + (i2 if j1 == 0 else -i2)) % m
        if j1 and j2:
            extra = half if family == QUATERNION else 0
            return ((i + extra) % m, 0)
        return (i, j1 ^ j2)

    elems = [(i, j) for j in (0, 1) for i in range(m)]
    return elems, mul


def brute_aut_order(family, n, s):
    """Count automorphisms by generator images over the abstract model."""
    elems, mul = abstract_target(family, n, s)
    m = (1 << (n - 1)) * s
    ident = (0, 0)

    def power(a, k):
        acc = ident
        for _ in range(k):
            acc = mul(acc, a)
        return acc

    def order(a):
        acc = a
        k = 1
        while acc != ident:
            acc = mul(acc, a)
            k += 1
        return k

    x, y = (1, 0), (0, 1)
    count = 0
    for xi in elems:
        if order(xi) != m:
            continue
        for yi in elems:
            # relations: yi xi yi^{-1} = xi^{-1}, yi^2 = xi^{half} or identity
            inv_yi = next(e for e in elems if mul(yi, e) == ident)
            if mul(mul(yi, xi), inv_yi) != power(xi, m - 1):
                continue
            want = power(xi, (1 << (n - 2)) * s) if family == QUATERNION else ident
            if mul(yi, yi) != want:
                continue
            # generation: closure of {xi, yi}
            closure = {ident}
            frontier = [ident]
            while frontier:
                cur = frontier.pop()
                for g in (xi, yi):
                    nxt = mul(cur, g)
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            if len(closure) == len(elems):
                count += 1
    return count


def test_parse_kind():
    assert parse_kind("q16") == TargetKind(QUATERNION, 4, 1)
    assert parse_kind("d32") == TargetKind(DIHEDRAL, 5, 1)
    assert parse_kind("q24") == TargetKind(QUATERNION, 3, 3)
    assert parse_kind("D12") == TargetKind(DIHEDRAL, 2, 3)
    for bad in ("x8", "q", "q6", "q2", "q0", "d0", "d00"):  # order 0 must fail, not loop
        with pytest.raises(InvalidInputError):
            parse_kind(bad)


def test_kind_labels_and_names():
    assert parse_kind("q16").label() == "q16"
    assert TargetKind(DIHEDRAL, 2, 3).display_name() == "D_12"
    assert parse_kind("q4").display_name() == "C_4"
    assert parse_kind("d4").display_name() == "C_2×C_2"


def test_classify_q8_in_hol_c2xc4():
    subs, _ = list_regular(make_group([2, 4]), parse_kind("q8"))
    assert len(subs) == 2
    for sub in subs:
        assert classify_subgroup(hol_elements(sub)) == TargetKind(QUATERNION, 3, 1)


def test_classify_cyclic_is_other():
    # the translation subgroup of Hol(C8) is cyclic: no quaternion/dihedral shape
    g = make_group([8])
    elems = [hol_from_translation(g, (v,)) for v in range(8)]
    assert classify_subgroup(elems) is None


def test_classify_d12_with_odd_part():
    subs, _ = list_regular(make_group([12]), parse_kind("d12"))
    assert subs
    for sub in subs:
        kind = classify_subgroup(hol_elements(sub))
        assert kind == TargetKind(DIHEDRAL, 2, 3)


def test_classify_rejects_non_closed():
    g = make_group([8])
    elems = [hol_from_translation(g, (v,)) for v in (0, 1, 2, 3, 4, 5, 6, 6)]
    with pytest.raises(InvalidInputError):
        classify_subgroup(elems)
    with pytest.raises(InvalidInputError):
        classify_subgroup([hol_from_translation(g, (v,)) for v in (0, 1)])


def test_classify_is_conjugation_invariant():
    from holobrace.kernel import get_kernel

    g = make_group([2, 8])
    kern = get_kernel(g)
    subs, _ = list_regular(g, parse_kind("d16"))
    gens = kern.aut_generator_tuples()
    for sub in subs[:4]:
        base_kind = classify_kernel(kern, frozenset(sub.elements), False)[0]
        for gen in gens:
            conj = kern.conjugator(gen)
            moved = frozenset(conj(e) for e in sub.elements)
            assert classify_kernel(kern, moved, False)[0] == base_kind


def test_aut_order_formulas():
    assert aut_order(parse_kind("q16")) == 32
    assert aut_order(parse_kind("q24")) == 48
    assert aut_order(parse_kind("q8")) == 24
    assert aut_order(parse_kind("d8")) == 8
    assert aut_order(parse_kind("d4")) == 6
    assert aut_order(parse_kind("q4")) == 2
    assert aut_order(parse_kind("d16")) == 32
    assert aut_order(parse_kind("q12")) == 12
    assert aut_order(parse_kind("d12")) == 12
    # phi(s) from the factorization is the gcd count, for every odd s < 2000
    for s in range(3, 2000, 2):
        phi = sum(1 for k in range(1, s) if gcd(k, s) == 1)
        for family, n in ((QUATERNION, 3), (DIHEDRAL, 2)):
            assert aut_order(TargetKind(family, n, s)) == (1 << (2 * n - 3)) * s * phi


@pytest.mark.parametrize(
    "label",
    ["q4", "d4", "q8", "d8", "q12", "d12", "q16", "d16", "q20", "d20", "q24", "d24", "q32", "d32", "q36", "d36", "q40", "d40", "q48", "d48"],
)
def test_aut_order_against_brute_force(label):
    kind = parse_kind(label)
    assert aut_order(kind) == brute_aut_order(kind.family, kind.n, kind.s)


def test_admissible_types():
    assert admissible_types(2) == [make_group([4]), make_group([2, 2])]
    assert len(admissible_types(3)) == 3  # C4 x C2 duplicates C2 x C4
    t4 = admissible_types(4)
    assert len(t4) == 5
    assert make_group([2, 2, 2, 2]) in t4
    t5 = admissible_types(5)
    assert len(t5) == 5
    assert make_group([32]) in t5 and make_group([2, 16]) in t5


def test_admissible_types_start_with_the_family_types():
    for n in range(2, 13):
        types = admissible_types(n)
        assert types[:2] == list(family_types(n)), n
        assert len(set(types)) == len(types) == (2 if n == 2 else 3 if n == 3 else 5), n
        assert all(t.order == 1 << n and t.odd_order == 1 for t in types), n


def test_x_order_and_sizes():
    k = parse_kind("q24")
    assert k.order == 24 and k.x_order == 12
    assert TargetKind(k.family, k.n, 1) == parse_kind("q8")  # its Sylow 2-kind
