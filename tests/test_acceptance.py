"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as part of the suite.
"""

from holobrace.abelian import make_group, parse_group
from holobrace.brace import brace_from_subgroup, verify_brace, ybe_solution
from holobrace.counts import (
    census,
    d_closed,
    d_computed,
    hgs_count,
    hgs_reduce,
    q_closed,
    q_computed,
    table1_report,
)
from holobrace.holomorph import order_spectrum
from holobrace.presentations import DIHEDRAL, QUATERNION, TargetKind, admissible_types, parse_kind
from holobrace.regular import list_regular, search_regular
from holobrace.structured import solve_family

from family_oracles import CYCLIC, RANK2, family_group, kernel_keys, solved, witness_elements
from subgroup_oracles import semidirect_subgroup, tau_set
from test_brace import is_right_nondegenerate, lambda_is_homomorphism_reference

PASS = "ACCEPT {}: PASS  {}"


TABLE1 = [
    ("C_4", "C_4", 1, 1, 1),
    ("C_2×C_2", "C_4", 1, 3, 1),
    ("C_4", "C_2×C_2", 1, 1, 3),
    ("C_2×C_2", "C_2×C_2", 1, 1, 1),
    ("C_8", "Q_8", 1, 1, 6),
    ("C_2×C_4", "Q_8", 1, 2, 6),
    ("C_2×C_2×C_2", "Q_8", 1, 14, 2),
    ("C_8", "D_8", 1, 1, 2),
    ("C_2×C_4", "D_8", 5, 14, 14),
    ("C_2×C_2×C_2", "D_8", 2, 126, 6),
    ("C_16", "Q_16", 1, 1, 4),
    ("C_2×C_8", "Q_16", 4, 8, 16),
    ("C_4×C_4", "Q_16", 2, 48, 16),
    ("C_2×C_2×C_4", "Q_16", 1, 48, 8),
    ("C_2×C_2×C_2×C_2", "Q_16", 1, 5040, 8),
    ("C_16", "D_16", 1, 1, 4),
    ("C_2×C_8", "D_16", 6, 16, 32),
    ("C_4×C_4", "D_16", 0, 0, 0),
    ("C_2×C_2×C_4", "D_16", 0, 0, 0),
    ("C_2×C_2×C_2×C_2", "D_16", 0, 0, 0),
]


def test_criterion_1_table1_exact():
    """All 20 (N, G) rows of orders 4, 8, 16 match the reference values."""
    rep = table1_report()
    assert list(rep.rows) == TABLE1
    got = dict(((r[0], r[1]), (r[2], r[3], r[4])) for r in rep.rows)
    assert got[("C_2×C_2×C_2", "D_8")] == (2, 126, 6)
    assert got[("C_2×C_2×C_2×C_2", "Q_16")] == (1, 5040, 8)
    # the heavy row is a single orbit of 5040 with stabilizer order 4
    _, big = list_regular(make_group([2, 2, 2, 2]), parse_kind("q16"))
    assert [(c.orbit_size, c.stabilizer_order) for c in big] == [(5040, 4)]
    print(PASS.format(1, "Table 1: all 20 rows exact, including (C2^3, D8) and (C2^4, Q16)"))


def engine_keys_of_witnesses(entry):
    """The solver's witnesses, closed by the test oracle, as engine keys."""
    return kernel_keys(family_group(entry.family, entry.n), [witness_elements(entry, w) for w in entry.witnesses])


def test_criterion_2_structured_families():
    """Closed-form solvers match their counts and the generic engine."""
    for fam in (QUATERNION, DIHEDRAL):
        for family, n, counts in ((CYCLIC, 4, (1, 1)), (CYCLIC, 5, (1, 1)), (CYCLIC, 6, (1, 1)), (RANK2, 5, (16, 6)), (RANK2, 6, (16, 6))):
            res = solve_family(family_group(family, n), fam)
            assert (res.r, res.c) == counts
        # subgroup-for-subgroup agreement with the generic engine
        for n in (4, 5):
            entry = solved(CYCLIC, n, fam)
            assert engine_keys_of_witnesses(entry) == {s.key for s in list_regular(make_group([1 << n]), entry.kind)[0]}
        entry = solved(RANK2, 5, fam)
        assert engine_keys_of_witnesses(entry) == {s.key for s in list_regular(make_group([2, 16]), entry.kind)[0]}
        # h-values: 2^{n-2} cyclic, 2^{n+1} rank 2
        for n in (4, 5, 6):
            assert hgs_count(TargetKind(fam, n, 1), make_group([1 << n]), 1) == 1 << (n - 2)
        for n in (5, 6):
            assert hgs_count(TargetKind(fam, n, 1), make_group([2, 1 << (n - 1)]), 16) == 1 << (n + 1)
    print(PASS.format(2, "structured families: (1,1) and (16,6); engine agreement at n=4,5; h-values"))


def test_criterion_3_nonexistence():
    """Order spectrum of Hol(C4 x C8) and empty searches at n = 5."""
    spec = order_spectrum(make_group([4, 8]))
    assert 16 not in spec and max(spec) == 8
    for orders in ([4, 8], [2, 2, 8], [2, 2, 2, 4]):
        for kd in ("q32", "d32"):
            res = search_regular(make_group(orders), parse_kind(kd))
            assert (res.c, res.r) == (0, 0), (orders, kd)
    print(PASS.format(3, "no order-16 elements in Hol(C4xC8); Q32/D32 searches empty at n=5"))


def test_criterion_4_two_power_summary():
    """q/d totals for 2-power orders, as sums of per-type class counts."""
    assert q_computed(32) == 7 and d_computed(32) == 7
    assert q_computed(16) == 9 and d_computed(16) == 7
    assert q_computed(8) == 3 and d_computed(8) == 8
    assert q_computed(4) == 2 and d_computed(4) == 2
    print(PASS.format(4, "q(32)=d(32)=7, q(16)=9, d(16)=7, q(8)=3, d(8)=8, q(4)=d(4)=2"))


def test_criterion_5_odd_part_reduction():
    """Direct s = 3 censuses and the set-level (H, tau) bijection."""
    assert census(parse_group("[24]"), parse_kind("q24")).c == 2
    assert census(parse_group("c3xc2xc4"), parse_kind("q24")).c == 3
    assert census(parse_group("c3xc2xc2xc2"), parse_kind("q24")).c == 1
    assert 2 + 3 + 1 == 6  # six quaternion classes at order 24 in total
    assert census(parse_group("[12]"), parse_kind("d12")).c == 2
    assert census(parse_group("c3xc2xc2"), parse_kind("d12")).c == 1
    # reduction-path counts match direct enumeration
    for nspec, kd in [("[24]", "q24"), ("c3xc2xc4", "q24"), ("c3xc2xc2xc2", "q24"),
                      ("[12]", "d12"), ("c3xc2xc2", "d12")]:
        red = census(parse_group(nspec), parse_kind(kd), method="reduction")
        direct = census(parse_group(nspec), parse_kind(kd), method="direct")
        assert (red.c, red.r) == (direct.c, direct.r), (nspec, kd)
    # set-level bijection for N = C3 x N_2, |N_2| <= 16
    c3 = make_group([3])
    pairs = []
    for n in (2, 3, 4):
        for two in admissible_types(n):
            for fam in ("q", "d"):
                pairs.append((two, fam))
    for two, fam in pairs:
        kind2 = parse_kind(fam + str(two.order))
        base, _ = list_regular(two, kind2)
        built = set()
        for h in base:
            for tau in tau_set(h):
                built.add(semidirect_subgroup(h, tau, c3).key)
        mixed_kind = parse_kind(fam + str(3 * two.order))
        direct, _ = list_regular(make_group((3,) + two.factors), mixed_kind)
        assert built == {s.key for s in direct}, (two.display_name(), fam)
    print(PASS.format(5, "s=3 class counts (6 quaternion / 3 dihedral) and full (H,tau) set bijection |N_2| <= 16"))


def test_criterion_6_final_theorems():
    """Closed forms against computed censuses, and table row sums."""
    for m in (3, 4, 6, 8, 12):
        order = 4 * m
        assert q_computed(order) == q_closed(m), m
        assert d_computed(order) == d_closed(m), m
    # row sums over additive types for n <= 6 and s in {1, 3, 5}
    for n in range(2, 7):
        for s in (1, 3, 5):
            m = (1 << (n - 2)) * s
            if m < 3:
                continue
            qt = sum(
                census(make_group((s,) + t.factors) if s > 1 else t, TargetKind(QUATERNION, n, s)).c
                for t in admissible_types(n)
            )
            dt = sum(
                census(make_group((s,) + t.factors) if s > 1 else t, TargetKind(DIHEDRAL, n, s)).c
                for t in admissible_types(n)
            )
            assert qt == q_closed(m), (n, s)
            assert dt == d_closed(m), (n, s)
    print(PASS.format(6, "q/d closed forms match censuses for 4m <= 48 and all (n <= 6, s in {1,3,5}) row sums"))


TABLE4 = {
    # (two-part factors, family) -> h / s
    ((4,), QUATERNION): 1, ((4,), DIHEDRAL): 3,
    ((2, 2), QUATERNION): 1, ((2, 2), DIHEDRAL): 1,
    ((8,), QUATERNION): 6, ((8,), DIHEDRAL): 2,
    ((2, 4), QUATERNION): 6, ((2, 4), DIHEDRAL): 14,
    ((2, 2, 2), QUATERNION): 2, ((2, 2, 2), DIHEDRAL): 6,
    ((16,), QUATERNION): 4, ((16,), DIHEDRAL): 4,
    ((2, 8), QUATERNION): 16, ((2, 8), DIHEDRAL): 32,
    ((4, 4), QUATERNION): 16, ((4, 4), DIHEDRAL): 0,
    ((2, 2, 4), QUATERNION): 8, ((2, 2, 4), DIHEDRAL): 0,
    ((2, 2, 2, 2), QUATERNION): 8, ((2, 2, 2, 2), DIHEDRAL): 0,
    ((32,), QUATERNION): 8, ((32,), DIHEDRAL): 8,
    ((2, 16), QUATERNION): 64, ((2, 16), DIHEDRAL): 64,
}


def test_criterion_7_hgs_reduction():
    """h(N, J) = h(N_2, J_2) * s against the reference per-type values."""
    for (two_factors, fam), per_s in TABLE4.items():
        two = make_group(two_factors)
        n = two.two_adic
        for s in (3, 5):
            group = make_group((s,) + two_factors)
            kind = TargetKind(fam, n, s)
            assert hgs_reduce(group, kind) == per_s * s, (two_factors, fam, s)
    # s = 3 cross-check against direct enumeration + the counting formula
    for nspec, kd in [("[12]", "q12"), ("[12]", "d12"), ("[24]", "q24"), ("[24]", "d24"),
                      ("c3xc2xc4", "q24"), ("c3xc2xc4", "d24"),
                      ("c3xc2xc8", "q48"), ("c3xc4xc4", "q48"), ("c3xc2xc2xc4", "q48"),
                      ("c3xc16", "d48")]:
        group = parse_group(nspec)
        kind = parse_kind(kd)
        direct_h = census(group, kind, method="direct").h
        assert hgs_reduce(group, kind) == direct_h, (nspec, kd)
    print(PASS.format(7, "h(N,J) = h(N_2,J_2)*s for all n <= 5 rows at s in {3,5}, cross-checked at s=3"))


def _p_group_shapes(p, max_order):
    shapes = []
    order = p
    while order <= max_order:
        k = 0
        q = order
        while q > 1:
            q //= p
            k += 1
        for part in _partitions(k):
            shapes.append([p**a for a in part])
        order *= p
    return shapes


def _partitions(k):
    if k == 0:
        yield []
        return
    for first in range(1, k + 1):
        for rest in _partitions(k - first):
            if not rest or rest[0] >= first:
                yield [first] + rest


def _matrix_pool(p, exps, cap):
    """Valid matrices for the shape: all of them up to `cap`, strided beyond.

    Sampling decodes mixed-radix indices directly so huge candidate spaces
    (rank 6 binary is 2^36) are never iterated.
    """
    from holobrace.endo import make_endo

    r = len(exps)
    ranges = []
    for i in range(r):
        for j in range(r):
            step = p ** max(0, exps[i] - exps[j])
            ranges.append(range(0, p ** exps[i], step))
    sizes = [len(rg) for rg in ranges]
    total = 1
    for size in sizes:
        total *= size
    count = min(total, cap)
    stride = max(1, total // count)
    mats = []
    for t in range(count):
        idx = (t * stride) % total
        flat = []
        for rg, size in zip(ranges, sizes):
            flat.append(rg[idx % size])
            idx //= size
        mats.append(make_endo(p, exps, [flat[i * r : (i + 1) * r] for i in range(r)]))
    return mats


def test_criterion_8_property_suites():
    """Hillar-Rhea soundness/kernel/unit checks, holomorph identities, brace laws."""
    from holobrace.endo import endo_apply, endo_compose, is_unit, make_endo
    from holobrace.holomorph import HolElement, exponent_bound

    from subgroup_oracles import hol_power
    from holobrace.endo import enumerate_aut

    # matrix model checks for every p-group shape with |N| <= 64, p in {2, 3};
    # the matrix pool is exhaustive up to 4096 candidates, stride-sampled above
    for p in (2, 3):
        for shape in _p_group_shapes(p, 64):
            g = make_group(shape)
            exps = g.exponents(p)
            mats = _matrix_pool(p, exps, 2048)
            elems = list(g.elements())
            probe = elems[:: max(1, len(elems) // 12)]
            pool = mats[:: max(1, len(mats) // 24)]
            for m1 in pool:
                for m2 in pool:
                    comp = endo_compose(m1, m2)
                    for e in probe:
                        assert endo_apply(comp, e) == endo_apply(m1, endo_apply(m2, e))
            # unit criterion == bijectivity
            for m in mats[:: max(1, len(mats) // 192)]:
                images = {endo_apply(m, e) for e in elems}
                assert is_unit(m) == (len(images) == len(elems))
            # kernel property: shifting entries by p^{a_i} leaves the map fixed
            r = len(exps)
            base = mats[len(mats) // 2]
            shifted = make_endo(
                p, exps, [[base.rows[i][j] + p ** exps[i] for j in range(r)] for i in range(r)]
            )
            assert shifted == base
    # holomorph power formula and exponent bound
    for orders in ([2, 8], [4, 4], [16], [3, 3]):
        g = make_group(orders)
        p = g.primes[0]
        bound = exponent_bound(g, p)
        auts = list(enumerate_aut(g).blocks[0])
        elems = list(g.elements())
        for a in auts[:: max(1, len(auts) // 12)]:
            for v in elems[:: max(1, len(elems) // 6)]:
                x = HolElement(g, (a,), v)
                # x^2 = (A^2, (I + A) v)
                assert hol_power(x, 2) == HolElement(
                    g, (endo_compose(a, a),), g.add(v, endo_apply(a, v))
                )
    spec = order_spectrum(make_group([4, 8]))
    assert max(k for k in spec if k & (k - 1) == 0) <= exponent_bound(make_group([4, 8]), 2)
    # brace laws for every enumerated brace of order <= 16 (class representatives)
    braces = 0
    for n, fam in [(2, "q"), (2, "d"), (3, "q"), (3, "d"), (4, "q"), (4, "d")]:
        for two in admissible_types(n):
            kind = parse_kind(fam + str(two.order))
            for cls in list_regular(two, kind)[1]:
                bt = brace_from_subgroup(cls.representative)
                assert verify_brace(bt)
                assert lambda_is_homomorphism_reference(bt)
                sol = ybe_solution(bt)  # involutivity + braid, exhaustively
                assert is_right_nondegenerate(sol)
                braces += 1
    assert braces == sum(row[2] for row in TABLE1)
    print(PASS.format(8, f"Hillar-Rhea/holomorph/brace property suites ({braces} braces checked)"))
