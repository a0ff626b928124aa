import re
from dataclasses import replace
from itertools import combinations, islice, product

import pytest

from holobrace.abelian import make_group, parse_group
from holobrace.brace import brace_from_subgroup
import holobrace.oddpart as oddpart
from holobrace.errors import InternalConsistencyError, InvalidInputError
from holobrace.kernel import get_kernel
from holobrace.oddpart import reduce_counts
from holobrace.presentations import DIHEDRAL, QUATERNION, TargetKind, admissible_types, parse_kind
from holobrace.regular import SearchResult, list_regular, search_regular

from family_oracles import kernel_closure
from subgroup_oracles import (
    TauMap,
    classify_kernel,
    classify_subgroup,
    cyclic_halves,
    hol_elements,
    kernel_invert,
    semidirect_subgroup,
    tau_set,
)

C3 = make_group([3])


# -- oracles: every index-2 subgroup, the lift by definition, the s = 3 probe --------


def index2_subgroups(sub):
    """All index-2 subgroups of H, as code sets, via the quotient by
    Phi = <[H,H], H^2>: every one contains Phi, so they are the preimages of
    the index-2 subgroups of the elementary abelian H/Phi, in the order of
    the least codes of the cosets of Phi they add to Phi."""
    kern = get_kernel(sub.group)
    codes = {kern.code(e): e for e in sub.elements}
    gens = set()
    for a in sub.elements:
        gens.add(kern.compose(a, a))
        for b in sub.elements:
            gens.add(kern.compose(kern.compose(a, b), kernel_invert(kern, kern.compose(b, a))))
    phi = {kern.code(e) for e in kernel_closure(kern, list(gens), len(codes))}
    cosets, assigned = [], set()
    for c in sorted(codes):
        if c not in assigned:
            coset = frozenset(kern.code(kern.compose(codes[c], codes[p])) for p in phi)
            cosets.append(coset)
            assigned |= coset
    k = len(cosets)
    assert k & (k - 1) == 0
    lookup = {c: cs for cs in cosets for c in cs}
    reps = {cs: codes[min(cs)] for cs in cosets}
    out = []
    for picks in combinations(cosets[1:], k // 2 - 1):
        members = {cosets[0], *picks}
        if all(lookup[kern.code(kern.compose(reps[a], reps[b]))] in members for a in members for b in members):
            out.append(frozenset().union(*members))
    return out


def lift_elements(sub, kernel_codes, odd):
    """(t_a o tau_h, h) for a in N_s, h in H: the lift by its definition."""
    kern = get_kernel(make_group(tuple(odd.factors) + tuple(sub.group.factors)))
    kern2 = get_kernel(sub.group)
    odd_spaces = kern.spaces[1:]
    elems = []
    for h in sub.elements:
        inverting = kern2.code(h) not in kernel_codes
        for trans in product(*(range(sp.m) for sp in odd_spaces)):
            auts = (bytes(sp.neg_idx) if inverting else sp.identity for sp in odd_spaces)
            elems.append(h + tuple(map(lambda sp, a, t: sp.hol_perm(a, t), odd_spaces, auts, trans)))
    return kern, elems


def probed_kernels(sub):
    """The index-2 kernels whose s = 3 lift is recognized as the kind at
    order 3|H| by brute force."""
    kind = TargetKind(sub.kind.family, sub.kind.n, 3)
    out = []
    for kernel_codes in index2_subgroups(sub):
        kern, elems = lift_elements(sub, kernel_codes, C3)
        got = classify_kernel(kern, frozenset(elems), check_closed=False)
        if got is not None and got[0] == kind:
            out.append(kernel_codes)
    return out


def base_pairs(max_n):
    """(N_2, kind) for every admissible N_2 of order 2^n, 2 <= n <= max_n."""
    return [
        (two, parse_kind(fam + str(two.order)))
        for n in range(2, max_n + 1)
        for two in admissible_types(n)
        for fam in "qd"
    ]


def _oracle_cases():
    for two, kind in base_pairs(4):
        subs, _ = list_regular(two, kind)
        yield from (subs if two.order <= 8 else islice(subs, 16))


def test_tau_set_matches_the_index2_oracle():
    """tau_set = the index-2 kernels that pass the s = 3 probe, in order, on
    every H with |N_2| <= 8 and the first 16 H of each order-16 pair."""
    cases = 0
    for sub in _oracle_cases():
        assert [t.kernel_codes for t in tau_set(sub)] == probed_kernels(sub), (sub.group, sub.kind)
        cases += 1
    assert cases == 238


@pytest.mark.parametrize("odd", [C3, make_group([15])], ids=["s3", "s15"])
def test_lift_matches_its_definition(odd):
    for two, kind in base_pairs(3):
        for sub in list_regular(two, kind)[0]:
            for tau in tau_set(sub):
                kern, elems = lift_elements(sub, tau.kernel_codes, odd)
                assert semidirect_subgroup(sub, tau, odd).key == tuple(sorted(map(kern.code, elems)))


def test_klein_four_kernel_is_refused():
    """A C2xC4 D8 subgroup has three index-2 subgroups; the two Klein-four
    ones are not cyclic, so they lift to no dihedral group."""
    sub = one_subgroup("c2xc4", "d8")
    kernels = index2_subgroups(sub)
    cyclic = [t.kernel_codes for t in tau_set(sub)]
    klein = [k for k in kernels if k not in cyclic]
    assert len(kernels) == 3 and len(cyclic) == 1 and len(klein) == 2
    for kernel_codes in klein:
        with pytest.raises(InvalidInputError, match="does not produce the expected target"):
            semidirect_subgroup(sub, TauMap(sub, kernel_codes), C3)


def test_lift_checks_the_kind_of_h():
    """A D8 subgroup labelled Q8 has no w with w^2 = u^2 outside <u>."""
    from dataclasses import replace

    sub = one_subgroup("c2xc4", "d8")
    (tau,) = tau_set(sub)
    mislabelled = replace(sub, kind=parse_kind("q8"))
    with pytest.raises(InvalidInputError, match="does not produce the expected target"):
        semidirect_subgroup(mislabelled, TauMap(mislabelled, tau.kernel_codes), C3)


def one_subgroup(nspec, kind):
    return list_regular(parse_group(nspec), parse_kind(kind))[0][0]


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
    assert classify_subgroup(hol_elements(g)) == parse_kind("q96")


def test_semidirect_rejects_noncyclic_odd():
    h = one_subgroup("c8", "q8")
    tau = tau_set(h)[0]
    with pytest.raises(InvalidInputError):
        semidirect_subgroup(h, tau, make_group([3, 3]))


def test_three_taus_give_three_q24_classes():
    base, _ = list_regular(parse_group("c2xc4"), parse_kind("q8"))
    built = set()
    for h in base:
        for tau in tau_set(h):
            built.add(semidirect_subgroup(h, tau, C3).key)
    assert len(built) == 6  # 2 subgroups x 3 taus
    mixed, kind = parse_group("c3xc2xc4"), parse_kind("q24")
    assert built == {s.key for s in list_regular(mixed, kind)[0]}
    assert search_regular(mixed, kind).c == 3


S3_PAIRS = [
    ("c4", "q4"), ("c4", "d4"), ("c2xc2", "q4"), ("c2xc2", "d4"),
    ("c8", "q8"), ("c8", "d8"), ("c2xc4", "q8"), ("c2xc4", "d8"),
    ("c2xc2xc2", "q8"), ("c2xc2xc2", "d8"),
    ("c16", "q16"), ("c16", "d16"), ("c2xc8", "q16"), ("c2xc8", "d16"),
    ("c4xc4", "q16"), ("c2xc2xc4", "q16"),
]


def assert_lifts_are_the_direct_set(nspec, kind, s):
    """semidirect over all (H, tau) = the directly enumerated set for C_s x N2."""
    two = parse_group(nspec)
    base, _ = list_regular(two, parse_kind(kind))
    odd = make_group([s])
    built = set()
    for h in base:
        for tau in tau_set(h):
            built.add(semidirect_subgroup(h, tau, odd).key)
    mixed_kind = parse_kind(kind[0] + str(s * parse_kind(kind).order))
    direct, _ = list_regular(make_group((s,) + two.factors), mixed_kind)
    assert built == {sub.key for sub in direct}


@pytest.mark.parametrize("nspec,kind", S3_PAIRS)
def test_bijection_with_direct_enumeration_s3(nspec, kind):
    assert_lifts_are_the_direct_set(nspec, kind, 3)


@pytest.mark.parametrize("s", [5, 9, 15])  # 15 has two odd components
@pytest.mark.parametrize("nspec,kind", [(n, k) for n, k in S3_PAIRS if parse_group(n).order <= 8])
def test_bijection_with_direct_enumeration_odd(nspec, kind, s):
    assert_lifts_are_the_direct_set(nspec, kind, s)


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
    two = parse_group("c2xc4")
    base, _ = list_regular(two, parse_kind("q8"))
    kern2 = get_kernel(two)
    mixed = make_group((3,) + two.factors)
    kern = get_kernel(mixed)
    gens2 = kern2.aut_generator_tuples()
    for h in base[:1]:
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
    res = reduce_counts(parse_group(nspec), parse_kind(kind))
    assert isinstance(res, SearchResult) and res.method == "reduction"
    assert (res.r, res.c) == (r, c)
    assert len(res.class_sizes) == c


def test_reduce_matches_direct_at_s3():
    for nspec, kind in [("[24]", "q24"), ("c3xc2xc4", "d24"), ("[12]", "q12"), ("c3xc2xc2", "d12")]:
        group = parse_group(nspec)
        k = parse_kind(kind)
        res = reduce_counts(group, k)
        direct = search_regular(group, k)
        assert (res.r, res.c) == (direct.r, direct.c)


def test_exceptional_flags():
    # a kind is exceptional iff its 2-part is Q_8 or C_2×C_2, whatever s is;
    # a regular H of that 2-part kind then has three cyclic subgroups of
    # index 2, and otherwise one
    for family in (QUATERNION, DIHEDRAL):
        for n in range(2, 6):
            two_part = TargetKind(family, n, 1)
            want = two_part.display_name() in ("Q_8", "C_2×C_2")
            assert [TargetKind(family, n, s).exceptional for s in (1, 3, 5)] == [want] * 3
            group = next(g for g in admissible_types(n) if search_regular(g, two_part).r)
            (h_sub, *_), _ = list_regular(group, two_part)
            halves = list(cyclic_halves(get_kernel(group), h_sub.elements, group.order // 2))
            assert len(halves) == (3 if want else 1), (family, n)


def test_noncyclic_odd_part_gives_zero():
    res = reduce_counts(make_group([3, 3, 4]), TargetKind("quaternion", 2, 9))
    assert (res.r, res.c, res.class_sizes) == (0, 0, ())


# the five exceptional 2-parts: C8, C2xC4 and C2^3 for Q; C4 and C2^2 for D
EXCEPTIONAL_PAIRS = [
    ("c5xc8", "q40"),
    ("c5xc2xc4", "q40"),
    ("c5xc2xc2xc2", "q40"),
    ("c5xc4", "d20"),
    ("c5xc2xc2", "d20"),
]


@pytest.mark.parametrize("nspec,kind", EXCEPTIONAL_PAIRS)
def test_exceptional_reduction_checks_its_base_search(nspec, kind, monkeypatch):
    # r = 3·r(N_2) is checked against the s = 3 base search that gives the
    # class sizes; a base result that disagrees is an internal error
    group, k = parse_group(nspec), parse_kind(kind)
    r = reduce_counts(group, k).r
    assert r > 0
    real = oddpart.search_regular

    def corrupted(g, kd):
        res = real(g, kd)
        return replace(res, r=res.r + 1)

    monkeypatch.setattr(oddpart, "search_regular", corrupted)
    want = f"the s = 3 base search finds r = {r + 1}, the 2-part gives 3·r(N_2) = {r}"
    with pytest.raises(InternalConsistencyError, match=re.escape(want)):
        reduce_counts(group, k)
