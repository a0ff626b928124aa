from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import family_oracles as oracle
from family_oracles import (
    CYCLIC,
    RANK2,
    StructuredGeneratorPair,
    canonical_cyclic_pair,
    family_group,
    solved,
    solved_pairs,
    subgroup_elements,
)
from holobrace import structured
from holobrace.abelian import make_group
from holobrace.endo import aut_order, enumerate_aut
from holobrace.errors import InvalidInputError
from holobrace.holomorph import hol_apply, hol_compose, hol_identity, hol_invert
from holobrace.presentations import DIHEDRAL, QUATERNION, TargetKind
from holobrace.regular import SearchResult, list_regular, search_regular
from holobrace.structured import StructuredRangeError, solve_family

from subgroup_oracles import hol_power

FAMILIES = (QUATERNION, DIHEDRAL)


def family_census(family, n, target):
    """(r, c, orbit sizes) of the `family` pair of order 2^n through `solve_family`."""
    res = solve_family(family_group(family, n), target)
    assert isinstance(res, SearchResult) and res.method == "structured"
    return res.r, res.c, tuple(orbit for orbit, _ in res.class_sizes)


def witness_subgroups(entry):
    """Each witness (X, Y) of a solver's memo entry closed by the oracle into its subgroup."""
    return [oracle.witness_elements(entry, w) for w in entry.witnesses]


def witness_keys(entry):
    """The witnesses' subgroups as the generic engine's keys."""
    return oracle.kernel_keys(family_group(entry.family, entry.n), witness_subgroups(entry))


def hol_closure(gens, bound):
    """Reference closure through validated HolElements: encoding -> element."""
    ident = hol_identity(gens[0].group)
    seen = {ident.encode(): ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = hol_compose(cur, g)
            if nxt.encode() not in seen:
                assert len(seen) < bound, "closure exceeded expected subgroup order"
                seen[nxt.encode()] = nxt
                frontier.append(nxt)
    return seen


def holelement_subgroup(pair):
    """The pair's subgroup closed through validated HolElements, checked regular."""
    x, y = pair.instantiate()
    assert (x.encode(), y.encode()) == pair.affine()
    elems = frozenset(hol_closure([x, y], 2 * pair.kind.order))
    assert len(elems) == pair.kind.order
    assert len({enc[1] for enc in elems}) == pair.kind.order
    return elems


def assert_regular_of_its_kind(pair):
    """Check through validated HolElements, without closing the subgroup, that
    the pair generates a regular subgroup of its kind.

    X and Y satisfy the presentation of Q or D of order 2^n, so <X, Y> is
    {X^i Y^e} with at most 2^n elements; these move 0 to 2^n distinct points,
    so the action is regular and <X, Y> is the full quotient, Q or D itself.
    """
    x, y = pair.instantiate()
    assert (x.encode(), y.encode()) == pair.affine()
    half_x = pair.kind.order // 4  # X has order 2^{n-1}; X^{2^{n-2}} is central
    ident = hol_identity(x.group)
    assert hol_power(x, 2 * half_x).encode() == ident.encode()
    y_squared = hol_power(x, half_x) if pair.kind.family == QUATERNION else ident
    assert hol_compose(y, y).encode() == y_squared.encode()
    assert hol_compose(hol_compose(y, x), hol_invert(y)).encode() == hol_invert(x).encode()
    points = set()
    for point in (ident.trans, y.trans):
        for _ in range(2 * half_x):
            points.add(point)
            point = hol_apply(x, point)
    assert len(points) == pair.kind.order


def unpruned_cyclic_pairs(n, family):
    """Every (X, Y) pair of the cyclic congruence system, closed and kept if
    regular: subgroup -> first pair."""
    mod = 1 << n
    kind = TargetKind(family, n, 1)
    roots = [a for a in range(1, mod, 2) if a * a % mod == 1]
    rhs = mod >> 1 if family == QUATERNION else 0
    x_sols = [
        (alpha, v)
        for alpha in roots
        for v in range(mod)
        if ((1 + alpha) * v) % 8 == 4 and ((mod >> 3) * (1 + alpha) * v) % mod != 0
    ]
    y_sols = [(beta, w) for beta in roots for w in range(mod) if ((1 + beta) * w) % mod == rhs]
    found = {}
    for alpha, v in x_sols:
        for beta, w in y_sols:
            if ((alpha + beta) * v) % mod != ((alpha - 1) * w) % mod:
                continue
            pair = StructuredGeneratorPair(CYCLIC, n, kind, (alpha, v, beta, w))
            elems = subgroup_elements(pair)
            if len(elems) == kind.order and len({e[1] for e in elems}) == kind.order:
                found.setdefault(elems, pair)
    return found


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_solve_cyclic_counts(n, family):
    assert family_census(CYCLIC, n, family) == (1, 1, (1,))
    entry = solved(CYCLIC, n, family)
    assert len(entry.pairs) == len(entry.witnesses) == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [5, 6, 7])
def test_solve_rank2_counts(n, family):
    assert family_census(RANK2, n, family) == (16, 6, (2, 2, 2, 2, 4, 4))
    entry = solved(RANK2, n, family)
    assert len(entry.pairs) == 8 and len(entry.witnesses) == 16


@pytest.mark.parametrize("family", FAMILIES)
def test_rank2_at_n17(family):
    assert family_census(RANK2, 17, family) == (16, 6, (2, 2, 2, 2, 4, 4))


@pytest.mark.parametrize("family", FAMILIES)
def test_class_sizes_match_the_closure_oracle(family):
    """The witness walk finds the subgroups the closure-based solvers find,
    each once, in orbits of the same sizes."""
    for name, oracle_solver, ns in (
        (CYCLIC, oracle.solve_cyclic, range(4, 10)),
        (RANK2, oracle.solve_rank2, range(5, 12)),
    ):
        for n in ns:
            entry, ref = solved(name, n, family), oracle_solver(n, family)
            assert family_census(name, n, family) == (ref.r, ref.c, ref.class_sizes), n
            assert sorted(witness_subgroups(entry), key=sorted) == list(ref.subgroups), n
            assert {subgroup_elements(p) for p in solved_pairs(entry)} == {subgroup_elements(p) for p in ref.pairs}


@pytest.mark.parametrize("family", FAMILIES)
def test_range_guards(family):
    with pytest.raises(StructuredRangeError, match="cyclic solver needs n >= 4, got 3"):
        solve_family(make_group([8]), family)
    with pytest.raises(StructuredRangeError, match="rank-2 solver needs n >= 5, got 4"):
        solve_family(make_group([2, 8]), family)
    with pytest.raises(StructuredRangeError):
        solve_family(make_group([4, 4]), family)
    with pytest.raises(StructuredRangeError):
        solve_family(make_group([2]), family)
    with pytest.raises(InvalidInputError, match="unknown family"):
        solve_family(make_group([32]), "cyclic")


@pytest.mark.parametrize("family", FAMILIES)
def test_canonical_pair_matches_solution(family):
    for n in (4, 5, 6):
        pair = canonical_cyclic_pair(n, family)
        assert holelement_subgroup(pair) == subgroup_elements(pair)
        entry = solved(CYCLIC, n, family)
        assert subgroup_elements(pair) == subgroup_elements(solved_pairs(entry)[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_cyclic_agrees_with_engine_subgroup_for_subgroup(family):
    for n in (4, 5):
        entry = solved(CYCLIC, n, family)
        engine, _ = list_regular(make_group([1 << n]), entry.kind)
        assert witness_keys(entry) == {s.key for s in engine}


@pytest.mark.parametrize("family", FAMILIES)
def test_rank2_agrees_with_engine_subgroup_for_subgroup(family):
    entry = solved(RANK2, 5, family)
    engine = search_regular(make_group([2, 16]), entry.kind)
    subs, classes = list_regular(make_group([2, 16]), entry.kind)
    assert witness_keys(entry) == {s.key for s in subs}
    assert engine.c == 6 and engine.r == 16
    listed = sorted((c.orbit_size, c.stabilizer_order) for c in classes)
    assert listed == sorted(solve_family(make_group([2, 16]), family).class_sizes)


@pytest.mark.parametrize("family", FAMILIES)
def test_rank2_oracle_at_n6(family):
    entry = solved(RANK2, 6, family)
    engine = search_regular(make_group([2, 32]), entry.kind)
    assert witness_keys(entry) == {s.key for s in list_regular(make_group([2, 32]), entry.kind)[0]}
    assert (engine.r, engine.c) == (16, 6)


@pytest.mark.parametrize("family", FAMILIES)
def test_instantiation_property_up_to_bound(family, bound=12):
    """Every solved pair generates a regular subgroup of the right kind.

    Checked through validated HolElements, independently of the solvers'
    integer arithmetic.  Where closing the subgroup that way is cheap, it must
    also equal the solvers' closure.
    """
    for n in range(4, bound + 1):
        pair = canonical_cyclic_pair(n, family)
        assert_regular_of_its_kind(pair)
        assert holelement_subgroup(pair) == subgroup_elements(pair)
    for n in range(5, bound + 1):
        for pair in solved_pairs(solved(RANK2, n, family)):
            assert_regular_of_its_kind(pair)
            if n <= 8:
                assert holelement_subgroup(pair) == subgroup_elements(pair)


@pytest.mark.parametrize("family", FAMILIES)
def test_pairs_classify_correctly(family):
    from subgroup_oracles import classify_subgroup

    for n in (5, 6):
        pair = solved_pairs(solved(RANK2, n, family))[0]
        elems = list(hol_closure(pair.instantiate(), 2 * pair.kind.order).values())
        assert classify_subgroup(elems) == pair.kind


@pytest.mark.parametrize("name", [CYCLIC, RANK2], ids=["solve_cyclic", "solve_rank2"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [5, 6])
def test_integer_closure_matches_holelement_closure(n, family, name):
    entry = solved(name, n, family)
    for pair in solved_pairs(entry):
        assert holelement_subgroup(pair) == subgroup_elements(pair)
    assert set(witness_subgroups(entry)) >= {subgroup_elements(p) for p in solved_pairs(entry)}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_pruned_cyclic_search_matches_unpruned(n, family):
    # the one closed-form pair finds what every (X, Y) pair of the congruence system finds
    found = unpruned_cyclic_pairs(n, family)
    entry = solved(CYCLIC, n, family)
    assert witness_subgroups(entry) == list(found)
    assert solved_pairs(entry) == tuple(found.values())


def cold_compositions(monkeypatch, group, family):
    """The compositions of a cold solve of the family group, counted at `_compose`."""
    count, compose = [0], structured._compose

    def counting(x, y, mods):
        count[0] += 1
        return compose(x, y, mods)

    with monkeypatch.context() as m:
        m.setattr(structured, "_compose", counting)
        structured._solved.__wrapped__(group, family)
    return count[0]


def test_a_cold_solve_composes_linearly_in_n(monkeypatch):
    # a walk over the points of N doubled the work at each step of n; the
    # closed-form test and the orbit walk grow at most linearly
    for family in FAMILIES:
        for name in (CYCLIC, RANK2):
            counts = [cold_compositions(monkeypatch, family_group(name, n), family) for n in (128, 256, 512)]
            assert counts[1] <= 2 * counts[0] and counts[2] <= 2 * counts[1], (name, family, counts)


@pytest.mark.parametrize("target", FAMILIES)
@pytest.mark.parametrize("n", [64, 512])
def test_both_families_answer_far_past_a_point_walk(n, target):
    # h = |Aut(G)| r / |Aut(N)| with |Aut(G)| = 2^(2n-3) and the Hillar-Rhea
    # |Aut(N)|: 2^(n-1) for C_{2^n}, 2^n for C_2 x C_{2^(n-1)}
    for name, (c, r), aut_n in ((CYCLIC, (1, 1), 1 << (n - 1)), (RANK2, (6, 16), 1 << n)):
        group = family_group(name, n)
        res = solve_family(group, target)
        assert aut_order(group) == aut_n
        assert (res.c, res.r, res.h) == (c, r, (r << (2 * n - 3)) // aut_n)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_closed_form_pairs_equal_the_searches_they_replace(family):
    for n in range(4, 17):
        assert structured._cyclic_pairs(n, family) == oracle.cyclic_normal_form_pairs(n, family), n
    for n in range(5, 17):
        pairs = tuple(p.affine() for p in oracle.rank2_alpha_loop_pairs(n, family))
        assert structured._rank2_pairs(n, family) == pairs, n


def test_the_regularity_walk_refuses_a_repeated_point():
    # X = (1, 2) on C_16 walks the 8 even points; X = (1, 4) has order 4
    marks = bytearray(16)
    assert oracle.mark_orbit(marks, ((1,), (2,)), (0,), 8, (16,)) and marks == bytearray([1, 0] * 8)
    assert not oracle.mark_orbit(bytearray(16), ((1,), (4,)), (0,), 8, (16,))
    # on C_2 x C_8 the point (p0, p1) is index 8 * p0 + p1; X = (1, (1, 1))
    # reaches (1, 1), (0, 2), ... and returns to 0 after 8 steps
    marks = bytearray(16)
    x = ((1, 0, 0, 1), (1, 1))
    assert oracle.mark_orbit(marks, x, (0, 0), 8, (2, 8))
    assert marks == bytearray([1, 0] * 4 + [0, 1] * 4)
    assert not oracle.mark_orbit(marks, x, (1, 1), 1, (2, 8))
    # with Y = (-1, t), XYX = Y and Y^2 = 1: <X, Y> is regular iff Y(0) = t
    # is off the orbit of 0, and the closed-form test agrees with the walk
    for t, regular in (((1, 1), False), ((0, 2), False), ((1, 0), True), ((0, 1), True)):
        y = ((1, 0, 0, 7), t)
        assert oracle.walk_regular(x, y, 4, DIHEDRAL, (2, 8)) is regular, t
        assert structured._regular(x, y, 3, False, (2, 8)) is regular, t


@pytest.mark.parametrize("target", FAMILIES)
def test_every_fundamental_pair_is_regular_by_both_tests(target):
    quat = target == QUATERNION
    for name, pairs, least in ((CYCLIC, structured._cyclic_pairs, 4), (RANK2, structured._rank2_pairs, 5)):
        for n in range(least, 17):
            mods = family_group(name, n).factors
            for x, y in pairs(n, target):
                assert structured._regular(x, y, n - 1, quat, mods), (name, n, x, y)
                assert oracle.walk_regular(x, y, n, target, mods), (name, n, x, y)


def test_the_closed_form_regularity_test_refuses_what_the_walk_refuses():
    # X = (1, 4) has order 4 < 8, so z = X^4 = 1 fixes 0; Y = (-1, 2) has
    # Y(0) = X(0); both pass the dihedral relations
    mods = (16,)
    for x, y in ((((1,), (4,)), ((15,), (1,))), (((1,), (2,)), ((15,), (2,)))):
        assert oracle.presents(x, y, 4, DIHEDRAL, mods)
        assert not oracle.walk_regular(x, y, 4, DIHEDRAL, mods)
        assert not structured._regular(x, y, 3, False, mods)
    # both tests agree on every pair of Hol(C_16) and of Hol(C_2 x C_8), and
    # on each fundamental X of C_2 x C_16 and C_2 x C_32 with every Y(0)
    for target in FAMILIES:
        quat = target == QUATERNION
        for group in (make_group([16]), make_group([2, 8])):
            mods = group.factors
            elements = [(a.flat(), p) for (a,) in enumerate_aut(group) for p in product(*map(range, mods))]
            for x, y in product(elements, repeat=2):
                assert structured._regular(x, y, 3, quat, mods) is oracle.walk_regular(x, y, 4, target, mods)
        for n in (5, 6):
            mods = family_group(RANK2, n).factors
            for (x, (b, _)), u in product(structured._rank2_pairs(n, target), product(*map(range, mods))):
                y = (b, u)
                assert structured._regular(x, y, n - 1, quat, mods) is oracle.walk_regular(x, y, n, target, mods)


def test_cyclic_point_budget(monkeypatch):
    # there is none: HOLOBRACE_CAP bounds automorphism blocks only, so
    # C_{2^22}, once refused at 2^22 points > 2^21, answers under the
    # default cap, and C_64 under a cap of 1
    monkeypatch.delenv("HOLOBRACE_CAP", raising=False)
    assert family_census(CYCLIC, 22, DIHEDRAL) == (1, 1, (1,))
    monkeypatch.setenv("HOLOBRACE_CAP", "1")
    assert family_census(CYCLIC, 6, DIHEDRAL) == (1, 1, (1,))


def test_rank2_point_budget(monkeypatch):
    # there is none: C_2 x C_{2^18}, once refused at 8 * 2^19 points > 2^21,
    # answers under the default cap, and C_2 x C_16 under a cap of 1
    monkeypatch.delenv("HOLOBRACE_CAP", raising=False)
    assert family_census(RANK2, 19, QUATERNION) == (16, 6, (2, 2, 2, 2, 4, 4))
    monkeypatch.setenv("HOLOBRACE_CAP", "1")
    assert family_census(RANK2, 5, DIHEDRAL) == (16, 6, (2, 2, 2, 2, 4, 4))


@pytest.mark.parametrize("family", FAMILIES)
def test_y_uniqueness(family):
    """For each solved X there is exactly one subgroup: solving over all Y
    never produces a second one."""
    kind = TargetKind(family, 5, 1)
    engine, _ = list_regular(make_group([2, 16]), kind)
    # each subgroup contains exactly 2^{n-2} = 8 generators X of <x>, and
    # 16 subgroups carry all 2^{n+2} = 128 admissible X matrices
    x_orders = {}
    from holobrace.kernel import get_kernel

    kern = get_kernel(make_group([2, 16]))
    for sub in engine:
        count = sum(1 for e in sub.elements if kern.order(e) == kind.x_order and kern.trans_index(e) != 0 and _generates_index2_cyclic(kern, e, kind))
        x_orders[sub.key] = count
    assert all(v == 8 for v in x_orders.values())


def _generates_index2_cyclic(kern, e, kind):
    # order 2^{n-1} with a faithful translation orbit
    pows = kern.power_list(e, kind.x_order)
    return len({kern.trans_index(p) for p in pows}) == kind.x_order


def test_fundamental_distinctness():
    for family in FAMILIES:
        keys = {subgroup_elements(p) for p in solved_pairs(solved(RANK2, 5, family))}
        assert len(keys) == 8


def test_a_warm_family_memo_answers_under_any_cap(monkeypatch):
    # the memo answers a repeated solve; no budget is checked in front of it
    memo = structured._solved
    for group in (make_group([32]), make_group([2, 16])):
        warm = solve_family(group, QUATERNION)
        hits = memo.cache_info().hits
        assert solve_family(group, QUATERNION) == warm and memo.cache_info().hits == hits + 1
        monkeypatch.setenv("HOLOBRACE_CAP", "1")
        assert solve_family(group, QUATERNION) == warm and memo.cache_info().hits == hits + 2
        monkeypatch.delenv("HOLOBRACE_CAP")


def test_solve_family_dispatch():
    assert solve_family(make_group([32]), QUATERNION) == SearchResult.from_orbits(
        make_group([32]), TargetKind(QUATERNION, 5, 1), (1,), "structured"
    )
    assert solve_family(make_group([2, 16]), DIHEDRAL).r == 16
    with pytest.raises(InvalidInputError):
        solve_family(make_group([3, 8]), QUATERNION)


def oracle_member(g, x, d, w, mods):
    """`structured._member` answered by the discrete-log oracle instead."""
    return oracle.in_cyclic(g, oracle.squares(x, mods), mods)


def affine_maps(mods):
    """Automorphisms with translations, in encoding form: a unit on C_m; on
    C_2 x C_m, m >= 4, the matrices (1, a1; (m/2) a2, a3), a3 odd."""
    trans = st.tuples(*(st.integers(0, m - 1) for m in mods))
    if len(mods) == 1:
        return st.tuples(st.tuples(st.integers(0, mods[0] // 2 - 1).map(lambda a: 2 * a + 1)), trans)
    half = mods[1] // 2
    matrix = st.tuples(
        st.just(1), st.integers(0, 1), st.sampled_from((0, half)), st.integers(0, half - 1).map(lambda a: 2 * a + 1)
    )
    return st.tuples(matrix, trans)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.data())
def test_membership_through_the_translation_power_matches_the_discrete_log(data):
    # g is a random map, a power of X, a random translation after a power
    # of X, or a power of X conjugated by a random automorphism, on C_{2^n}
    # or C_2 x C_{2^(n-1)}, n <= 12
    rank = data.draw(st.sampled_from((1, 2)), label="rank")
    n = data.draw(st.integers(3, 12), label="n")
    mods = (1 << n,) if rank == 1 else (2, 1 << (n - 1))
    maps = affine_maps(mods)
    x = data.draw(maps, label="X")
    power = x
    for _ in range(data.draw(st.integers(0, 1 << (n - 1)), label="j")):
        power = structured._compose(power, x, mods)
    how = data.draw(st.sampled_from(("random", "power", "shifted", "conjugate")), label="g")
    if how == "random":
        g = data.draw(maps, label="g")
    elif how == "power":
        g = power
    elif how == "shifted":  # τ_e X^j is in <X> iff e lies in <w>, X^d = τ_w
        g = structured._compose((structured._identity(mods)[0], data.draw(maps, label="e")[1]), power, mods)
    else:
        a = (data.draw(maps, label="a")[0], (0,) * len(mods))
        a_inv = a
        while (nxt := structured._compose(a_inv, a, mods)) != structured._identity(mods):
            a_inv = nxt
        g = structured._compose(structured._compose(a, power, mods), a_inv, mods)
    d, w = structured._translation_power(x, mods)
    assert structured._member(g, x, d, w, mods) == oracle_member(g, x, d, w, mods)
    assert how != "power" or structured._member(g, x, d, w, mods)


def test_membership_when_x_to_the_d_translates_the_c2_factor():
    # X = τ_(1, 0) on C_2 x C_8: d = 1, w = (1, 0), and <X> = {1, X}
    mods = (2, 8)
    x = ((1, 0, 0, 1), (1, 0))
    assert structured._translation_power(x, mods) == (1, (1, 0))
    for v, inside in (((0, 0), True), ((1, 0), True), ((0, 4), False), ((1, 4), False)):
        g = ((1, 0, 0, 1), v)
        assert structured._member(g, x, 1, (1, 0), mods) == oracle_member(g, x, 1, (1, 0), mods) == inside


@pytest.mark.parametrize("family", FAMILIES)
def test_solvers_answer_as_with_the_discrete_log(family, monkeypatch):
    # the solved pairs, the witnesses in their order (so r) and the class
    # sizes are those the orbit walk gives with the discrete-log membership test
    for name, ns in ((CYCLIC, range(4, 15)), (RANK2, range(5, 15))):
        for n in ns:
            res = structured._solved(family_group(name, n), family)
            with monkeypatch.context() as m:
                m.setattr(structured, "_member", oracle_member)
                ref = structured._solved.__wrapped__(family_group(name, n), family)
            assert res == ref, n
