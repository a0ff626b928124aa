import functools
from dataclasses import fields, replace
from math import gcd, lcm

import pytest

from holobrace.abelian import make_group, parse_group
from holobrace.endo import aut_order, make_endo
from holobrace.errors import CapacityError, InternalConsistencyError, InvalidInputError
from holobrace.holomorph import HolElement
from holobrace.kernel import Pool, PrimeSpace, get_kernel
from holobrace.presentations import QUATERNION, admissible_types, parse_kind
from holobrace.presentations import aut_order as target_aut_order
from holobrace.regular import (
    RegularSubgroup,
    SearchResult,
    _additive_pairs,
    _class_sizes,
    _expand_orbits,
    _frames,
    _search_cached,
    _seed_search,
    _subgroup,
    _x_scan,
    classify,
    list_regular,
    search_regular,
)

from family_oracles import generate_closure, is_regular, kernel_closure
from subgroup_oracles import (
    classify_kernel,
    classify_subgroup,
    hol_elements,
    hol_from_translation,
    kernel_invert,
    witnesses,
)


def canonical_cyclic_generators(n, family):
    """X = (1, 2) and Y = (-1 + 2^{n-1}, 1) (quaternion) or (-1, 1) (dihedral)."""
    g = make_group([1 << n])
    mod = 1 << n
    beta = (mod - 1 + (mod >> 1)) % mod if family == "quaternion" else mod - 1
    x = HolElement(g, (make_endo(2, (n,), [[1]]),), (2,))
    y = HolElement(g, (make_endo(2, (n,), [[beta]]),), (1,))
    return g, x, y


def encodings(elems):
    return [e.encode() for e in elems]


def test_is_regular_translations():
    g = make_group([2, 4])
    elems = [hol_from_translation(g, v) for v in g.elements()]
    assert is_regular(encodings(elems), g.order)


def test_is_regular_rejects_collisions():
    g = make_group([8])
    elems = [hol_from_translation(g, (v,)) for v in range(7)]
    inv = HolElement(g, (make_endo(2, (3,), [[7]]),), (0,))
    assert not is_regular(encodings(elems + [inv]), g.order)  # translation part 0 collides with identity


def test_is_regular_wrong_size():
    g = make_group([8])
    assert not is_regular(encodings(hol_from_translation(g, (v,)) for v in range(4)), g.order)


def test_canonical_cyclic_subgroup_is_regular():
    for family in ("quaternion", "dihedral"):
        g, x, y = canonical_cyclic_generators(4, family)
        sub = generate_closure([x, y], 64)
        assert len(sub) == 16
        assert is_regular(encodings(sub), g.order)
        kind = classify_subgroup(sub)
        assert kind is not None and kind.family == family and kind.n == 4


def test_generate_closure_basics():
    g = make_group([8])
    t = hol_from_translation(g, (1,))
    assert len(generate_closure([t], 16)) == 8
    ident = hol_from_translation(g, (0,))
    assert generate_closure([ident], 4) == {ident}


def test_generate_closure_cap():
    g = make_group([8])
    with pytest.raises(CapacityError):
        generate_closure([hol_from_translation(g, (1,))], 4)


@pytest.mark.parametrize(
    "nspec,kind,c,r",
    [
        ("c2xc4", "q8", 1, 2),
        ("c2xc2xc2", "d8", 2, 126),
        ("c4xc8", "q32", 0, 0),
        ("c2xc2xc8", "q32", 0, 0),
        ("c2xc2xc8", "d32", 0, 0),
    ],
)
def test_find_regular_counts(nspec, kind, c, r):
    res = search_regular(parse_group(nspec), parse_kind(kind))
    assert (res.c, res.r) == (c, r)


def test_every_subgroup_has_requested_kind():
    for nspec, kind in [("c2xc8", "d16"), ("c2xc4", "d8"), ("[24]", "q24")]:
        k = parse_kind(kind)
        for sub in list_regular(parse_group(nspec), k)[0]:
            assert sub.kind == k
            assert classify_subgroup(hol_elements(sub)) == k


def test_classify_d16_on_c2xc8():
    g, k = parse_group("c2xc8"), parse_kind("d16")
    res = search_regular(g, k)
    assert res.r == 16 and res.c == 6
    _, classes = list_regular(g, k)
    for cls in classes:
        assert cls.orbit_size * cls.stabilizer_order == 16  # |Aut(C2 x C8)|
    assert sum(cls.orbit_size for cls in classes) == 16


def test_single_fixed_subgroup_class():
    g, k = make_group([16]), parse_kind("q16")
    res = search_regular(g, k)
    assert res.c == 1
    _, classes = list_regular(g, k)
    assert classes[0].orbit_size == 1
    assert classes[0].stabilizer_order == 8  # all of Aut(C16)


def test_regularity_preserved_by_conjugation():
    g = parse_group("c2xc8")
    kern = get_kernel(g)
    _, classes = list_regular(g, parse_kind("d16"))
    gens = kern.aut_generator_tuples()
    for cls in classes:
        elems = cls.representative.elements
        for gen in gens:
            conj = kern.conjugator(gen)
            moved = [conj(e) for e in elems]
            assert len({kern.trans_index(e) for e in moved}) == g.order


def test_witnesses_satisfy_relations():
    # on the Sylow path of C2^4, 5024 of the 5040 subgroups are not seeds:
    # their witnesses are conjugated pairs from the orbit expansion
    for nspec, kind, method in [("c2xc8", "q16", "auto"), ("c2xc8", "d16", "auto"), ("c2xc2xc2xc2", "q16", "sylow")]:
        check_witnesses(parse_group(nspec), parse_kind(kind), method)


def check_witnesses(g, k, method):
    from holobrace.holomorph import hol_compose, hol_identity, hol_invert, hol_order, hol_power

    kern = get_kernel(g)
    mx = k.x_order
    quat = k.family == "quaternion"
    assert search_regular(g, k, method).r
    subgroups, _ = list_regular(g, k, method)
    for sub in subgroups:
        x, y = sub.witness
        assert kern.order(x) == mx
        assert kern.compose(kern.compose(y, x), kernel_invert(kern, y)) == kernel_invert(kern, x)
        assert kern.compose(y, y) == (kern.power_list(x, mx)[mx // 2] if quat else kern.identity)
        assert kernel_closure(kern, sub.witness, g.order) == frozenset(sub.elements)
    # the same relations on the validated HolElement surface (slower)
    for sub in subgroups[:32]:
        x, y = witnesses(sub)
        assert hol_order(x) == mx
        assert hol_compose(hol_compose(y, x), hol_invert(y)) == hol_invert(x)
        assert hol_compose(y, y) == (hol_power(x, mx // 2) if quat else hol_identity(g))


SYLOW_PATH_PAIRS = [
    ([4], "q4"),
    ([4], "d4"),
    ([2, 2], "q4"),
    ([2, 2], "d4"),
    ([8], "q8"),
    ([8], "d8"),
    ([2, 4], "q8"),
    ([2, 4], "d8"),
    ([2, 2, 2], "q8"),
    ([2, 2, 2], "d8"),
    ([16], "q16"),
    ([16], "d16"),
    ([2, 8], "q16"),
    ([2, 8], "d16"),
    ([4, 4], "q16"),
    ([4, 4], "d16"),
    ([2, 2, 4], "q16"),
    ([2, 2, 4], "d16"),
]


@pytest.mark.parametrize("orders,kind", SYLOW_PATH_PAIRS)
def test_sylow_path_matches_full_path(orders, kind):
    g = make_group(orders)
    k = parse_kind(kind)
    full = search_regular(g, k, method="full")
    syl = search_regular(g, k, method="sylow")
    (full_subs, full_classes), (syl_subs, syl_classes) = (list_regular(g, k, m) for m in ("full", "sylow"))
    assert [s.key for s in full_subs] == [s.key for s in syl_subs]
    assert full.c == syl.c
    assert sorted(c.orbit_size for c in full_classes) == sorted(
        c.orbit_size for c in syl_classes
    )


@pytest.mark.parametrize(
    "orders,kind",
    SYLOW_PATH_PAIRS + [([2, 2, 2, 2], "q16"), ([3, 2, 2, 2, 2], "q48"), ([7, 2, 2, 2], "d56")],
)
def test_stabilizers_give_the_classes_of_the_orbit_expansion(orders, kind):
    # the Sylow path sizes its classes by stabilizers; listing the orbits must
    # give the same (orbit, stabilizer) list in the same order.  The frames
    # hold one generating pair per automorphism of the target group.
    g, k = make_group(orders), parse_kind(kind)
    kern = get_kernel(g)
    seeds = _seed_search(kern, k, kern.sylow_pool())
    found, classes = _expand_orbits(kern, seeds)
    assert _class_sizes(kern, k, seeds) == tuple((c.orbit_size, c.stabilizer_order) for c in classes)
    assert sum(c.orbit_size for c in classes) == len(found)
    for sub, _ in seeds.values():
        frames = _frames(kern, sub, k.family == QUATERNION)
        assert sum(len(a_orders) for a_orders, _ in frames) == target_aut_order(k)
    assert search_regular(g, k, "sylow").class_sizes == _class_sizes(kern, k, seeds)


def test_a_linearity_check_without_the_order_condition_is_caught(monkeypatch):
    # comparing p with the mixed-radix map of its columns, without the order
    # condition q_j c_j = 0, accepts bijections of C2xC8 that are not additive:
    # a stabilizer of order 32 > |Aut(C2xC8)| = 16, which the search refuses
    def without_order_condition(space, p):
        return space.linear_perm([p[b] for b in space._basis_idx]) == p

    g, k = make_group([2, 8]), parse_kind("d16")
    kern = get_kernel(g)
    monkeypatch.setattr(PrimeSpace, "is_linear", without_order_condition)
    _search_cached.cache_clear()
    try:
        seeds = _seed_search(kern, k, kern.sylow_pool())
        frames = [_frames(kern, sub, False) for sub, _ in seeds.values()]
        stabs = [sum(1 for _ in _additive_pairs(kern, f[0], f)) for f in frames]
        assert max(stabs) == 32 > aut_order(g) == 16
        with pytest.raises(InternalConsistencyError, match="stabilizer order 32 does not divide"):
            search_regular(g, k, "sylow")
    finally:
        _search_cached.cache_clear()
    monkeypatch.undo()
    assert search_regular(g, k, "sylow").class_sizes == ((2, 8), (2, 8), (4, 4), (2, 8), (2, 8), (4, 4))


def test_a_listing_that_disagrees_with_the_stabilizers_is_refused(monkeypatch):
    # every listing is checked against the search's r and class sizes, on
    # both paths: a search answer off in either one refuses the listing
    import holobrace.regular as regular

    g, k = make_group([2, 8]), parse_kind("q16")
    real = regular.search_regular
    skews = [
        lambda res: replace(res, class_sizes=((4, 4),) + res.class_sizes[1:]),
        lambda res: replace(res, r=res.r + 1),
    ]
    for method in ("sylow", "full"):
        assert len(list_regular(g, k, method)[0]) == real(g, k, method).r
        for skew in skews:
            monkeypatch.setattr(regular, "search_regular", lambda *args, skew=skew: skew(real(*args)))
            with pytest.raises(InternalConsistencyError, match="orbit listing"):
                list_regular(g, k, method)
            monkeypatch.undo()


@pytest.mark.parametrize("nspec,kind,method", [("c3xc2xc4", "d24", "full"), ("c2xc8", "q16", "sylow")])
def test_a_listing_is_rebuilt_alike_on_every_use(nspec, kind, method):
    g, k = parse_group(nspec), parse_kind(kind)
    kern = get_kernel(g)
    res = search_regular(g, k, method)
    (first, classes), (second, _) = list_regular(g, k, method), list_regular(g, k, method)
    assert first[0] is not second[0]  # rebuilt, not kept on the memoized result
    pool = kern.full_pool() if method == "full" else kern.sylow_pool()
    found, expanded = _expand_orbits(kern, _seed_search(kern, k, pool))
    assert [s.key for s in first] == [s.key for s in second] == sorted(found)
    assert res.r == len(found)
    assert [c.representative for c in classes] == [c.representative for c in expanded]
    assert [(c.orbit_size, c.stabilizer_order) for c in classes] == [(c.orbit_size, c.stabilizer_order) for c in expanded]


def test_the_search_memo_keeps_no_subgroup_lists():
    # the --direct censuses of orders 24 and 56 of the census-sweep benchmark:
    # the memo keeps r and the class sizes per search, neither the r subgroups
    # (2 MB here when it kept them) nor the c class representatives (0.078 MB)
    import gc
    import tracemalloc

    from holobrace.counts import census

    groups = {24: ["c3xc8", "c3xc2xc4", "c3xc2xc2xc2"], 56: ["c7xc8", "c7xc2xc4", "c7xc2xc2xc2"]}
    _search_cached.cache_clear()
    tracemalloc.start()
    try:
        for order, specs in groups.items():
            for spec in specs:
                for fam in "qd":
                    census(parse_group(spec), parse_kind(f"{fam}{order}"), method="direct")
        assert _search_cached.cache_info().currsize == 12
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        _search_cached.cache_clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 0.03 * 2**20


def test_a_search_result_keeps_only_its_answer():
    # the subgroups and the class representatives come from list_regular,
    # which reruns the scan; a search result holds no view of them
    assert [f.name for f in fields(SearchResult)] == ["group", "kind", "r", "class_sizes", "method"]
    for method in ("full", "sylow"):
        res = search_regular(make_group([2, 8]), parse_kind("q16"), method)
        assert not any(hasattr(res, name) for name in ("subgroups", "classes", "keys", "representatives"))
        assert res.c == len(res.class_sizes) == len(list_regular(res.group, res.kind, method)[1])


def test_an_answer_is_built_from_orbits_that_divide_aut_n():
    # |Aut(C2 x C4)| = 8, |Aut(D8)| = 8; |Aut(C2^3)| = 168, |Aut(Q8)| = 24
    g, k = make_group([2, 4]), parse_kind("d8")
    res = SearchResult.from_orbits(g, k, 14, [2, 2, 4, 2, 4], "direct")
    assert res.class_sizes == ((2, 4), (2, 4), (4, 2), (2, 4), (4, 2)) == search_regular(g, k, "full").class_sizes
    assert (res.c, res.h) == (5, 14)
    with pytest.raises(InternalConsistencyError, match=r"orbit size 3 does not divide \|Aut\(C_2×C_4\)\| = 8"):
        SearchResult.from_orbits(g, k, 3, [3], "direct")
    with pytest.raises(InternalConsistencyError, match=r"\* r = 24 is not divisible by \|Aut\(C_2×C_2×C_2\)\| = 168"):
        SearchResult.from_orbits(make_group([2, 2, 2]), parse_kind("q8"), 1, [1], "direct")
    # h reads |Aut(N)| off the first class, so an answer with r > 0 needs one
    with pytest.raises(InternalConsistencyError, match="r = 14 regular subgroups in no class"):
        SearchResult.from_orbits(g, k, 14, [], "direct")
    assert SearchResult.from_orbits(g, k, 0, [], "type-theorem").h == 0


def test_warm_search_meets_lowered_budgets(monkeypatch):
    # a memoized search still checks its pool's budgets on every call
    g, k = make_group([2, 2, 2]), parse_kind("d8")
    assert search_regular(g, k).method == "full"
    monkeypatch.setenv("HOLOBRACE_CAP", "100")  # |Aut(C2^3)| = |GL(3, 2)| = 168
    with pytest.raises(CapacityError) as err:
        search_regular(g, k)
    assert (err.value.needed, err.value.cap) == (168, 100)
    monkeypatch.delenv("HOLOBRACE_CAP")
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "1000")  # |Hol(C2^3)| = 8 * 168 = 1344
    with pytest.raises(CapacityError) as err:
        search_regular(g, k, "full")
    assert (err.value.needed, err.value.cap) == (1344, 1000)
    monkeypatch.delenv("HOLOBRACE_HOL_CAP")
    assert search_regular(g, k).r == 126


def test_sylow_path_matches_full_path_c2p4(monkeypatch):
    # |Hol(C2^4)| = 322560: raise the scan cap so the full path runs too
    g = make_group([2, 2, 2, 2])
    k = parse_kind("q16")
    syl = search_regular(g, k, method="sylow")
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "400000")
    full = search_regular(g, k, method="full")
    assert [s.key for s in list_regular(g, k, "full")[0]] == [s.key for s in list_regular(g, k, "sylow")[0]]
    assert full.c == syl.c == 1
    assert full.r == syl.r == 5040


@pytest.mark.parametrize("orders", [[4, 16], [2, 2, 16], [2, 2, 2, 8]])
@pytest.mark.parametrize("kind", ["q64", "d64"])
def test_zero_families_empty_at_n6(orders, kind, monkeypatch):
    # the nonexistence families stay empty at n = 6 under a real search
    # (C2^3 x C8 needs a raised cap: its Sylow pool has 131072 elements)
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "200000")
    res = search_regular(make_group(orders), parse_kind(kind))
    assert (res.c, res.r) == (0, 0)


@pytest.mark.parametrize(
    "orders,kind,method",
    [([4, 32], "q128", "full"), ([2, 2, 32], "d128", "full"), ([2, 2, 2, 16], "q128", "sylow")],
)
def test_zero_families_empty_at_n7(orders, kind, method, monkeypatch):
    # the nonexistence families stay empty at n = 7; the largest pool is the
    # Sylow pool of C2^3 x C16, 128 * 4096 = 2^19 elements
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", str(1 << 19))
    res = search_regular(make_group(orders), parse_kind(kind), method)
    assert (res.c, res.r) == (0, 0)


@functools.lru_cache(maxsize=None)
def scan_oracle(pool, mx):
    """The X scan without the candidate stream: build the whole pool, keep
    each x of order mx (the lcm of its component orders) whose orbit of 0
    has mx points, in pool order.  Also
    names the cyclic subgroups: cyclic[code(x)] is the code of the first
    kept generator of <x>.  Cached per pool for the two tests below."""
    kern = get_kernel(pool.name[0])
    elements = list(pool)
    assert len(elements) == len(pool)
    units = [k for k in range(1, mx) if gcd(k, mx) == 1]
    orders: dict[bytes, int] = {}  # the order of each component permutation
    kept, cyclic = [], {}
    for x in elements:
        for sp, a in zip(kern.spaces, x):
            if a not in orders:
                orders[a] = sp.order(a)
        if lcm(*map(orders.__getitem__, x)) != mx:
            continue
        pows = kern.power_list(x, mx)
        if len({kern.trans_index(p) for p in pows}) != mx:
            continue
        kept.append(x)
        if kern.code(x) not in cyclic:
            cyclic.update((kern.code(pows[k]), kern.code(x)) for k in units)
    return kept, cyclic


def oracle_pools(kern):
    """The full and the Sylow pool of N, each where it fits the scan cap."""
    for make_pool in (kern.full_pool, kern.sylow_pool):
        try:
            yield make_pool()
        except CapacityError:
            pass


# every admissible 2-part with n <= 5 times C_s, s in {1, 3, 5}, and with
# n <= 4 times C_7, and one group with two odd primes; the X scan depends on
# N and the pool only, since X has order |N| / 2 for both kinds.  The
# largest Sylow pool here, of C5 x C2^3 x C4, has 655360 elements; every
# full pool up to that size is scanned as well
ORACLE_GROUPS = [
    make_group(([s] if s > 1 else []) + list(two.factors))
    for n in range(2, 6)
    for two in admissible_types(n)
    for s in ((1, 3, 5, 7) if n <= 4 else (1, 3, 5))
] + [make_group([3, 5, 4])]
ORACLE_CAP = "655360"


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_candidate_stream_matches_scan_oracle(group, monkeypatch):
    # the stream is the oracle's list, thinned to the x whose 2-part linear
    # part A is the least generator of <A> in the block's (sorted) order,
    # and it meets every cyclic subgroup <x> of the oracle's list exactly once
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", ORACLE_CAP)
    kern = get_kernel(group)
    sp = kern.spaces[0]
    mx = parse_kind(f"q{group.order}").x_order
    scanned = 0
    for pool in oracle_pools(kern):
        oracle, cyclic = scan_oracle(pool, mx)
        stream = list(pool.candidates(mx))
        rest = iter(oracle)
        assert all(x in rest for x in stream)  # a subsequence, in pool order
        met = [cyclic[kern.code(x)] for x in stream]
        assert len(met) == len(set(met)) and set(met) == set(cyclic.values())  # each <x> once
        for a in {sp.compose(sp.add_rows[sp.neg_idx[x[0][0]]], x[0]) for x in stream}:
            assert least_generator(sp, a) == a
        scanned += 1
    assert scanned


def least_generator(sp, a):
    """The least generator of the cyclic <a>, a a permutation of N_p."""
    pows = [a]
    while pows[-1] != sp.identity:
        pows.append(sp.compose(a, pows[-1]))
    return min(pows[j - 1] for j in range(1, len(pows) + 1) if gcd(j, len(pows)) == 1)


def seen_set_x_scan(pool, mx):
    """The X scan with a seen-set, on the oracle's list thinned to the x
    whose 2-part linear part leads its <A>: each x that is a unit power of
    one kept before is dropped, and (x, sources) is kept for the others
    whose points off the orbit of 0 are one <x>-orbit."""
    kern = get_kernel(pool.name[0])
    sp = kern.spaces[0]
    units = [k for k in range(1, mx) if gcd(k, mx) == 1]
    seen, frames = set(), []
    for x in scan_oracle(pool, mx)[0]:
        a = sp.compose(sp.add_rows[sp.neg_idx[x[0][0]]], x[0])
        if least_generator(sp, a) != a or kern.code(x) in seen:
            continue
        pows = kern.power_list(x, mx)
        seen.update(kern.code(pows[k]) for k in units)
        cycles = kern.cycles(x, mx)
        at_0 = kern.orbit(cycles, 0, mx)
        orb0 = set(kern.combined(at_0))
        t = next(i for i in range(kern.n) if i not in orb0)
        at_t = kern.orbit(cycles, t, mx)
        if lcm(*map(len, map(set, at_t))) == mx:
            frames.append((x, tuple(map(bytes.__add__, at_0, at_t))))
    return tuple(frames)


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_x_scan_frames_match_the_seen_set_scan(group, monkeypatch):
    # the stream yields exactly the x that a seen-set over its unit powers
    # keeps, in the same order, so the frames are the same bytes; C3 x C2 x C2
    # has x with (c_2, c_3) = (3, 2), whose 2-part cycle is no 2-power
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", ORACLE_CAP)
    kern = get_kernel(group)
    mx = parse_kind(f"q{group.order}").x_order
    pools = list(oracle_pools(kern))
    assert pools
    for pool in pools:
        _x_scan.cache_clear()
        assert _x_scan(pool, mx) == seen_set_x_scan(pool, mx)
    _x_scan.cache_clear()


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=str)
def test_seeds_and_classes_match_a_search_over_the_oracle_list(group, monkeypatch):
    # the stream keeps other witnesses X than a scan of the oracle's whole
    # list, but the same seed keys, the same stabilizer class sizes (Sylow
    # path) and the same orbit expansion (full path) for both kinds
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", ORACLE_CAP)
    kern = get_kernel(group)
    kinds = [parse_kind(f"{fam}{group.order}") for fam in "qd"]
    for pool in oracle_pools(kern):
        method = pool.name[1]
        _x_scan.cache_clear()
        streamed = [_seed_search(kern, kind, pool) for kind in kinds]
        _x_scan.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(Pool, "candidates", lambda p, mx: iter(scan_oracle(p, mx)[0]))
            listed = [_seed_search(kern, kind, pool) for kind in kinds]
        _x_scan.cache_clear()
        for kind, got, want in zip(kinds, streamed, listed):
            assert sorted(got) == sorted(want)
            if method == "sylow":
                assert _class_sizes(kern, kind, got) == _class_sizes(kern, kind, want)
            else:
                (found, classes), (ref_found, ref_classes) = (_expand_orbits(kern, s) for s in (got, want))
                assert sorted(found) == sorted(ref_found) and classes == ref_classes


def test_orbit_stabilizer_identity_everywhere():
    from holobrace.endo import enumerate_aut

    for nspec, kind in [("c2xc4", "d8"), ("c4xc4", "q16"), ("c3xc2xc4", "q24")]:
        g = parse_group(nspec)
        _, classes = list_regular(g, parse_kind(kind))
        total = enumerate_aut(g).order
        for cls in classes:
            assert cls.orbit_size * cls.stabilizer_order == total


def test_classify_rejects_mixed_groups():
    a, _ = list_regular(make_group([8]), parse_kind("q8"))
    b, _ = list_regular(make_group([2, 4]), parse_kind("q8"))
    with pytest.raises(InvalidInputError):
        classify(list(a) + list(b))


def test_classify_rejects_a_kind_of_another_order():
    import dataclasses


    subs, _ = list_regular(make_group([2, 4]), parse_kind("q8"))
    for kind in ("q16", "d1048576"):  # refused before any power of the witness is built
        bad = [dataclasses.replace(subs[0], kind=parse_kind(kind))] + list(subs[1:])
        with pytest.raises(InvalidInputError, match="of another order than N"):
            classify(bad)


def test_classify_rejects_a_witness_that_does_not_generate():
    import dataclasses


    g = make_group([2, 8])
    subs, _ = list_regular(g, parse_kind("d16"))
    assert [c.orbit_size for c in classify(subs)] == [2, 2, 4, 2, 2, 4]
    ident = get_kernel(g).identity
    x, y = subs[0].witness
    outside = next(e for s in subs for e in s.elements if e not in subs[0].elements)
    constant = tuple(bytes(len(a)) for a in x)  # no permutation: its powers never reach the identity
    for pair in [(ident, ident), (x, x), (y, x), (x, outside), (constant, y)]:
        bad = [dataclasses.replace(subs[0], witness=pair)] + list(subs[1:])
        with pytest.raises(InvalidInputError):
            classify(bad)


def brute_force_regular_subgroups(group, kind):
    """Independent completeness oracle: close every generator pair of Hol(N).

    Quaternion and dihedral groups are 2-generated, so sweeping all pairs
    finds every candidate subgroup; keep the regular ones of the right shape.
    """
    kern = get_kernel(group)
    pool = list(kern.full_pool())
    found = set()
    n = group.order
    for i, a in enumerate(pool):
        for b in pool[i:]:
            closure = {kern.identity}
            frontier = [kern.identity]
            alive = True
            while frontier and alive:
                cur = frontier.pop()
                for g in (a, b):
                    nxt = kern.compose(cur, g)
                    if nxt not in closure:
                        if len(closure) >= n:
                            alive = False
                            break
                        closure.add(nxt)
                        frontier.append(nxt)
            if not alive or len(closure) != n:
                continue
            if len({kern.trans_index(e) for e in closure}) != n:
                continue
            got = classify_kernel(kern, frozenset(closure), check_closed=False)
            if got is not None and got[0] == kind:
                found.add(tuple(sorted(kern.code(e) for e in closure)))
    return found


@pytest.mark.parametrize(
    "orders,kind",
    [([2, 4], "q8"), ([2, 4], "d8"), ([8], "q8"), ([8], "d8"), ([4], "q4"), ([2, 2], "d4")],
)
def test_engine_matches_brute_force_oracle(orders, kind):
    group = make_group(orders)
    k = parse_kind(kind)
    assert {s.key for s in list_regular(group, k)[0]} == brute_force_regular_subgroups(group, k)


@pytest.mark.slow
def test_engine_matches_brute_force_oracle_c2xc8():
    group = make_group([2, 8])
    for kind in ("q16", "d16"):
        k = parse_kind(kind)
        assert {s.key for s in list_regular(group, k)[0]} == brute_force_regular_subgroups(group, k)


def test_deterministic_output():
    g = parse_group("c2xc8")
    k = parse_kind("d16")
    (subs1, classes1), (subs2, classes2) = list_regular(g, k), list_regular(g, k)
    assert [s.key for s in subs1] == [s.key for s in subs2]
    assert [c.representative.key for c in classes1] == [
        c.representative.key for c in classes2
    ]


def expand_orbits_reference(kern, seeds):
    """The orbit expansion that witness conjugation replaced: conjugate every
    element of a subgroup and key the image by its sorted codes.  `seeds`
    maps keys to elements; returns the same (subgroups by key, classes)."""
    from holobrace.abelian import reach
    from holobrace.endo import aut_order

    total = aut_order(kern.group)
    conjs = [kern.conjugator(g) for g in kern.aut_generator_tuples()]

    def conjugate(els, conj):
        return tuple(sorted(map(conj, els), key=kern.code))

    visited, classes = {}, []
    for seed_key in sorted(seeds):
        if seed_key in visited:
            continue
        start = tuple(sorted(seeds[seed_key], key=kern.code))
        orbit = {tuple(map(kern.code, els)): els for els in reach(start, conjs, conjugate, total)}
        assert total % len(orbit) == 0
        classes.append((min(orbit), len(orbit), total // len(orbit)))
        visited.update(orbit)
    return visited, classes


# the N of the census-sweep benchmark workload, plus C2^4 (Sylow path only)
ORBIT_GROUPS = [
    "c4", "c2xc2", "c8", "c2xc4", "c2xc2xc2", "c3xc4", "c3xc2xc2", "c16", "c2xc8", "c4xc4",
    "c2xc2xc4", "c5xc4", "c5xc2xc2", "c3xc8", "c3xc2xc4", "c3xc2xc2xc2", "c7xc4", "c7xc2xc2",
    "c4xc8", "c2xc2xc8", "c5xc8", "c5xc2xc4", "c5xc2xc2xc2", "c3xc16", "c3xc2xc8", "c3xc4xc4",
    "c3xc2xc2xc4", "c7xc8", "c7xc2xc4", "c7xc2xc2xc2", "c5xc16", "c5xc2xc8", "c5xc4xc4",
    "c5xc2xc2xc4", "c3xc4xc8", "c7xc16", "c7xc2xc8", "c7xc4xc4", "c2xc2xc2xc2",
]


@pytest.mark.parametrize("nspec", ORBIT_GROUPS)
def test_expand_orbits_matches_reference(nspec):
    # each kind alone, as a search expands it, and both kinds together, as
    # classify() takes a mixed list: there a quaternion and a dihedral
    # subgroup can share their <x>, and only the conjugate of y tells them apart

    g = parse_group(nspec)
    kern = get_kernel(g)
    checked = 0
    for make_pool in (kern.full_pool, kern.sylow_pool):
        try:
            pool = make_pool()
        except CapacityError:
            continue
        q, d = (_seed_search(kern, parse_kind(f"{fam}{g.order}"), pool) for fam in "qd")
        for seeds in (q, d, {**q, **d}):
            found, classes = _expand_orbits(kern, seeds)
            ref_found, ref_classes = expand_orbits_reference(
                kern, {k: s.elements for k, (s, _) in seeds.items()}
            )
            assert sorted(found) == sorted(ref_found)
            assert [(c.representative.key, c.orbit_size, c.stabilizer_order) for c in classes] == ref_classes
            assert all(found[c.representative.key] is c.representative for c in classes)
        checked += 1
    assert checked


@pytest.mark.parametrize("nspec", ORBIT_GROUPS)
def test_each_kind_seeds_alike_from_a_cold_and_a_shared_x_scan(nspec):
    # the X scan is memoized on (N, pool, |N|/2) and serves both kinds: a
    # search that finds it filled by the other kind must see the same seeds,
    # in the same order, with the same witnesses, as one that scans cold
    g = parse_group(nspec)
    kern = get_kernel(g)
    kinds = [parse_kind(f"{fam}{g.order}") for fam in "qd"]
    checked = 0
    for make_pool in (kern.full_pool, kern.sylow_pool):
        try:
            pool = make_pool()
        except CapacityError:
            continue
        for first, second in (kinds, kinds[::-1]):
            _x_scan.cache_clear()
            cold = _seed_search(kern, second, pool)
            _x_scan.cache_clear()
            _seed_search(kern, first, pool)
            warm = _seed_search(kern, second, pool)
            assert _x_scan.cache_info().misses <= 1  # one scan, or none past the order bound
            assert [(k, s.witness) for k, (s, _) in warm.items()] == [(k, s.witness) for k, (s, _) in cold.items()]
        checked += 1
    assert checked


@pytest.mark.parametrize("nspec,order,method", [("c2xc8", 16, "auto"), ("c3xc2xc4", 24, "direct")])
def test_quaternion_and_dihedral_censuses_share_one_x_scan(nspec, order, method, monkeypatch):
    from holobrace.counts import census

    streams = []
    real = Pool.candidates

    def spy(pool, mx):
        streams.append((pool.name, mx))
        return real(pool, mx)

    monkeypatch.setattr(Pool, "candidates", spy)
    _search_cached.cache_clear()
    _x_scan.cache_clear()
    g = parse_group(nspec)
    q = census(g, parse_kind(f"q{order}"), method=method)
    d = census(g, parse_kind(f"d{order}"), method=method)
    assert (q.r, d.r) != (0, 0)
    assert streams == [((g, "full"), order // 2)]


@pytest.mark.parametrize(
    "nspec,kind",
    [
        ("c2xc2xc2xc2", "q16"),
        ("c2xc8", "d16"),
        ("c2xc2xc2", "d8"),
        ("c3xc2xc4", "q24"),
        ("c3xc2xc4", "d24"),
        ("c7xc2xc2", "d28"),
    ],
)
def test_a_subgroup_is_its_sorted_codes_and_its_witness(nspec, kind):
    # a subgroup stores its key and witness only; its elements are the key's
    # codes cut back into component permutations, and rebuilding it from
    # them gives the same subgroup
    assert [f.name for f in fields(RegularSubgroup)] == ["group", "kind", "key", "witness"]
    g, k = parse_group(nspec), parse_kind(kind)
    kern = get_kernel(g)
    checked = 0
    for make_pool in (kern.full_pool, kern.sylow_pool):
        try:
            pool = make_pool()
        except CapacityError:
            continue
        found, _ = _expand_orbits(kern, _seed_search(kern, k, pool))
        assert found
        for key, sub in found.items():
            assert sub.key == key == tuple(sorted(key))
            assert all(tuple(map(len, e)) == tuple(kern.sizes) for e in sub.elements)
            assert tuple(map(kern.code, sub.elements)) == sub.key
            assert _subgroup(kern, k, sub.elements, sub.witness) == sub
        checked += 1
    assert checked


def test_x_scan_refuses_a_candidate_the_stream_should_not_yield(monkeypatch):
    # Pool.candidates yields only X of order mx with mx points through 0; a
    # stream that breaks this must stop the scan, not drop subgroups
    real = Pool.candidates

    def squared_first(pool, mx):
        stream = real(pool, mx)
        x = next(stream)
        yield get_kernel(pool.name[0]).compose(x, x)  # order mx/2
        yield from stream

    monkeypatch.setattr(Pool, "candidates", squared_first)
    _x_scan.cache_clear()
    kern = get_kernel(parse_group("c2xc8"))
    with pytest.raises(InternalConsistencyError, match="order 4 with 4 points through 0, both must be 8"):
        _x_scan(kern.full_pool(), 8)


def test_x_scan_refuses_a_candidate_that_is_no_permutation(monkeypatch):
    # the error names what went wrong without walking to an order that a
    # map which is no permutation never reaches
    real = Pool.candidates

    def collapsed_first(pool, mx):
        stream = real(pool, mx)
        x = next(stream)
        yield (bytes(len(x[0])),) + x[1:]
        yield from stream

    monkeypatch.setattr(Pool, "candidates", collapsed_first)
    _x_scan.cache_clear()
    kern = get_kernel(parse_group("c3xc2xc4"))
    try:
        with pytest.raises(InternalConsistencyError, match="no permutation, with 3 points through 0"):
            _x_scan(kern.full_pool(), 12)
    finally:
        _x_scan.cache_clear()


@pytest.mark.parametrize("spec", ["c8", "c2xc2xc2xc2", "c3xc2xc2", "c7xc2xc8"])
def test_power_list_matches_repeated_compose(spec):
    import random


    kern = get_kernel(parse_group(spec))
    rng = random.Random(spec)

    def sample():
        return tuple(sp.hol_perm(rng.choice(sp.aut_perms()), rng.randrange(sp.m)) for sp in kern.spaces)

    for _ in range(25):
        x, start = sample(), sample()
        for count in (1, 2, kern.order(x), kern.order(x) + 3):
            for s in (None, start):
                want = [kern.identity if s is None else s]
                for _ in range(count - 1):
                    want.append(kern.compose(x, want[-1]))
                got = kern.power_list(x, count) if s is None else kern.power_list(x, count, s)
                assert got == want


def walk(img, start, count):
    """The orbit [start, img[start], img[img[start]], ...] of `count` points,
    one lookup at a time over the image map `img`."""
    out = [start]
    for _ in range(count - 1):
        out.append(img[out[-1]])
    return out


@pytest.mark.parametrize("spec", ["c3xc2xc4", "c5xc2xc2xc2", "c3xc5xc4", "c2xc8"])
def test_power_cycles_match_the_step_by_step_walk(spec):
    # every element x of the full pool: its cycles, repeated, are the powers
    # x^i s walked one compose at a time, for counts below, at and above the
    # order of x, from the identity and from another element s; the orbits
    # read off them are the walks over images(x)
    kern = get_kernel(parse_group(spec))
    pool = list(kern.full_pool())
    for j, x in enumerate(pool):
        order = kern.order(x)
        counts = sorted({1, max(order - 1, 1), order, order + 3})
        start = pool[(7 * j + 1) % len(pool)]
        for s in (None, start):
            want = [kern.identity if s is None else s]
            for _ in range(order + 2):
                want.append(kern.compose(x, want[-1]))
            for count in counts:
                assert kern.power_list(x, count, s) == want[:count]
        # each component's cycle from s_p, composed until it returns to s_p,
        # has the order of x_p points, in full and cut below the order
        for sp, a, s in zip(kern.spaces, x, start):
            want = [s]
            while sp.compose(a, want[-1]) != s:
                want.append(sp.compose(a, want[-1]))
            assert len(sp.cycle(a)) == sp.order(a) == len(want)
            assert sp.cycle(a, s) == want
            below = max(len(want) - 1, 1)
            assert sp.cycle(a, s, below) == want[:below]
        img = kern.images(x)
        for count in counts:
            cycles = kern.cycles(x, count)
            for i in (0, kern.trans_index(start), kern.n - 1):
                assert kern.combined(kern.orbit(cycles, i, count)) == walk(img, i, count)


def test_a_direct_census_walks_each_power_cycle_once_per_use(monkeypatch):
    # from cleared memos: the scan walks the cycles of each kept X once, the
    # kind pass once more for an X with a Y, and the orbit expansion none,
    # since on the full path every conjugate is already indexed under its X
    from collections import Counter

    import holobrace.regular as regular
    from holobrace.counts import census
    from holobrace.kernel import HolKernel

    phase, calls, seeds = [None], [], {}
    real_cycles = HolKernel.cycles

    def cycles(kern, x, count, start=None):
        calls.append((phase[-1], kern.code(x), start is None))
        return real_cycles(kern, x, count, start)

    def within(name, fn, keep=None):
        def wrapped(*args):
            phase.append(name)
            try:
                out = fn(*args)
            finally:
                phase.pop()
            if keep is not None:
                keep.update(out)
            return out

        return wrapped

    regular._search_cached.cache_clear()
    regular._x_scan.cache_clear()
    monkeypatch.setattr(HolKernel, "cycles", cycles)
    monkeypatch.setattr(regular, "_x_scan", within("scan", regular._x_scan))
    monkeypatch.setattr(regular, "_seed_search", within("kind", regular._seed_search, seeds))
    monkeypatch.setattr(regular, "_expand_orbits", within("expand", regular._expand_orbits))
    g = parse_group("c7xc2xc2xc2")
    res = census(g, parse_kind("d56"), method="direct")
    regular._search_cached.cache_clear()
    kern = get_kernel(g)
    assert (res.method, res.r) == ("full", len(seeds)) and seeds
    seed_x = {kern.code(sub.witness[0]) for sub, _ in seeds.values()}
    assert [c for p, c, _ in calls if p == "expand"] == []
    scan = Counter(c for p, c, _ in calls if p == "scan")
    kind = Counter(c for p, c, ident in calls if p == "kind" and ident)
    assert set(scan.values()) == {1} and set(kind.values()) == {1}
    assert seed_x <= set(scan) and set(kind) == seed_x
