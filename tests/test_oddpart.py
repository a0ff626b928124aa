import pytest

from holobrace.abelian import make_group, parse_group
from holobrace.brace import brace_from_subgroup
from holobrace.errors import InvalidInputError
from holobrace.oddpart import (
    is_exceptional,
    reduce_counts,
    semidirect_subgroup,
    tau_set,
)
from holobrace.presentations import TargetKind, classify_subgroup, parse_kind
from holobrace.regular import search_regular

C3 = make_group([3])


def one_subgroup(nspec, kind):
    return search_regular(parse_group(nspec), parse_kind(kind)).subgroups[0]


@pytest.mark.parametrize(
    "nspec,kind,count",
    [
        ("c16", "q16", 1),
        ("c2xc8", "q16", 1),
        ("c8", "q8", 3),
        ("c2xc4", "q8", 3),
        ("c2xc2xc2", "q8", 3),
        ("c8", "d8", 1),
        ("c2xc4", "d8", 1),
        ("c4", "q4", 1),
        ("c2xc2", "d4", 3),
        ("c2xc8", "d16", 1),
    ],
)
def test_tau_counts(nspec, kind, count):
    assert len(tau_set(one_subgroup(nspec, kind))) == count


def test_tau_rejects_odd_order_subgroup():
    sub = one_subgroup("[12]", "d12")
    with pytest.raises(InvalidInputError):
        tau_set(sub)


def test_semidirect_s1_passthrough():
    from holobrace.abelian import GroupSpec

    h = one_subgroup("c2xc8", "q16")
    tau = tau_set(h)[0]
    assert semidirect_subgroup(h, tau, GroupSpec(())) is h


def test_semidirect_q32_to_q96():
    h = one_subgroup("c32", "q32")
    taus = tau_set(h)
    assert len(taus) == 1
    g = semidirect_subgroup(h, taus[0], C3)
    assert g.group == make_group([3, 32])
    assert g.kind == parse_kind("q96")
    assert classify_subgroup(g.hol_elements()) == parse_kind("q96")


def test_semidirect_rejects_noncyclic_odd():
    h = one_subgroup("c8", "q8")
    tau = tau_set(h)[0]
    with pytest.raises(InvalidInputError):
        semidirect_subgroup(h, tau, make_group([3, 3]))


def test_three_taus_give_three_q24_classes():
    base = search_regular(parse_group("c2xc4"), parse_kind("q8"))
    built = set()
    for h in base.subgroups:
        for tau in tau_set(h):
            built.add(semidirect_subgroup(h, tau, C3).key)
    assert len(built) == 6  # 2 subgroups x 3 taus
    direct = search_regular(parse_group("c3xc2xc4"), parse_kind("q24"))
    assert built == set(direct.keys)
    assert direct.c == 3


@pytest.mark.parametrize(
    "nspec,kind",
    [
        ("c4", "q4"), ("c4", "d4"), ("c2xc2", "q4"), ("c2xc2", "d4"),
        ("c8", "q8"), ("c8", "d8"), ("c2xc4", "q8"), ("c2xc4", "d8"),
        ("c2xc2xc2", "q8"), ("c2xc2xc2", "d8"),
        ("c16", "q16"), ("c16", "d16"), ("c2xc8", "q16"), ("c2xc8", "d16"),
        ("c4xc4", "q16"), ("c2xc2xc4", "q16"),
    ],
)
def test_bijection_with_direct_enumeration_s3(nspec, kind):
    """semidirect over all (H, tau) = the directly enumerated set for C3 x N2."""
    two = parse_group(nspec)
    base = search_regular(two, parse_kind(kind))
    built = set()
    for h in base.subgroups:
        for tau in tau_set(h):
            built.add(semidirect_subgroup(h, tau, C3).key)
    mixed_kind = parse_kind(kind[0] + str(3 * parse_kind(kind).order))
    direct = search_regular(make_group((3,) + two.factors), mixed_kind)
    assert built == set(direct.keys)


def test_trivial_odd_brace_property():
    """(N_s, +, o) restricted to the odd part is trivial: a o a' = a + a'."""
    h = one_subgroup("c2xc4", "q8")
    for tau in tau_set(h):
        g = semidirect_subgroup(h, tau, C3)
        bt = brace_from_subgroup(g)
        grp = g.group
        elems = list(grp.elements())
        odd_idx = [i for i, e in enumerate(elems) if grp.element_order(e) in (1, 3)]
        for a in odd_idx:
            for b in odd_idx:
                want = grp.index(grp.add(elems[a], elems[b]))
                assert bt.circ[a][b] == want


def test_lambda_trivial_on_odd_to_two():
    """lambda_{(a,0)} fixes (0, b'): odd translations act trivially."""
    h = one_subgroup("c2xc8", "d16")
    tau = tau_set(h)[0]
    g = semidirect_subgroup(h, tau, C3)
    bt = brace_from_subgroup(g)
    grp = g.group
    elems = list(grp.elements())
    odd_idx = [i for i, e in enumerate(elems) if grp.element_order(e) in (1, 3)]
    for a in odd_idx:
        lam = bt.lam[a]
        assert all(lam[b] == b for b in range(grp.order))


def test_conjugation_equivariance():
    """(alpha, beta) G (alpha, beta)^{-1} corresponds to (beta H beta^{-1}, beta.tau)."""
    from holobrace.kernel import get_kernel

    two = parse_group("c2xc4")
    base = search_regular(two, parse_kind("q8"))
    kern2 = get_kernel(two)
    mixed = make_group((3,) + two.factors)
    kern = get_kernel(mixed)
    gens2 = kern2.aut_generator_tuples()
    for h in base.subgroups[:1]:
        for tau in tau_set(h):
            g = semidirect_subgroup(h, tau, C3)
            for gen in gens2:
                conj2 = kern2.conjugator(gen)
                h_moved_elems = tuple(conj2(e) for e in h.elements)
                # rebuild the conjugated pair on the mixed group: beta acts on
                # the 2-component, identity on the odd part
                mixed_gen = (gen[0], kern.spaces[1].identity)
                conj = kern.conjugator(mixed_gen)
                expected = tuple(sorted(kern.code(conj(e)) for e in g.elements))
                # and compare against building from the conjugated (H, tau)
                from holobrace.regular import _subgroup

                h_moved = _subgroup(kern2, h.kind, h_moved_elems, tuple(map(conj2, h.witness)))
                tau_codes = frozenset(kern2.code(conj2e) for conj2e in (conj2(_elem(kern2, h, c)) for c in tau.kernel_codes))
                from holobrace.oddpart import TauMap

                g2 = semidirect_subgroup(h_moved, TauMap(h_moved, tau_codes), C3)
                assert g2.key == expected


def _elem(kern, sub, code):
    for e in sub.elements:
        if kern.code(e) == code:
            return e
    raise AssertionError("code not found")


@pytest.mark.parametrize(
    "nspec,kind,r,c",
    [
        ("[24]", "q24", 3, 2),
        ("c3xc2xc4", "q24", 6, 3),
        ("c3xc2xc2xc2", "q24", 42, 1),
        ("[12]", "d12", 3, 2),
        ("c3xc2xc2", "d12", 3, 1),
        ("c3xc2xc16", "q96", 16, 6),
        ("c5xc2xc8", "q80", 8, 4),
        ("[40]", "q40", 3, 2),
    ],
)
def test_reduce_counts(nspec, kind, r, c):
    got_r, got_c, sizes = reduce_counts(parse_group(nspec), parse_kind(kind))
    assert (got_r, got_c) == (r, c)
    assert len(sizes) == c


def test_reduce_matches_direct_at_s3():
    for nspec, kind in [("[24]", "q24"), ("c3xc2xc4", "d24"), ("[12]", "q12"), ("c3xc2xc2", "d12")]:
        group = parse_group(nspec)
        k = parse_kind(kind)
        r, c, _ = reduce_counts(group, k)
        direct = search_regular(group, k)
        assert (r, c) == (direct.r, direct.c)


def test_exceptional_flags():
    assert is_exceptional(parse_kind("q24"))
    assert is_exceptional(parse_kind("d12"))
    assert not is_exceptional(parse_kind("q48"))
    assert not is_exceptional(parse_kind("d24"))
    assert not is_exceptional(parse_kind("q12"))


def test_noncyclic_odd_part_gives_zero():
    r, c, sizes = reduce_counts(make_group([3, 3, 4]), TargetKind("quaternion", 2, 9))
    assert (r, c, sizes) == (0, 0, ())
