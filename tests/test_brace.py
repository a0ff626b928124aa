import json
from dataclasses import fields
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from holobrace import brace
from holobrace.abelian import make_group, parse_group
from holobrace.brace import (
    BraceTable,
    _add_table,
    brace_from_subgroup,
    braid_certificate,
    brace_violation,
    circ_generators,
    verify_brace,
    ybe_solution,
)
from holobrace.cli import _brace_pieces, _dump, _dump_list
from holobrace.errors import InternalConsistencyError, InvalidInputError
from holobrace.holomorph import hol_apply
from holobrace.kernel import HolKernel, get_kernel
from holobrace.presentations import TargetKind, admissible_types, parse_kind
from holobrace.regular import _subgroup, list_regular

from subgroup_oracles import from_kernel, hol_from_translation, to_kernel


def is_trivial(bt):
    """a o b = a + b for every a, b."""
    return bt.circ == _add_table(bt.group)


def is_right_nondegenerate(sol):
    """Every tau_y, read down column y of the solution table, is a
    permutation: the column sort that `ybe_solution` once ran itself."""
    n = len(sol.table)
    return all(sorted(v for _, v in col) == list(range(n)) for col in zip(*sol.table))


def translation_subgroup(orders):
    g = make_group(orders)
    kern = get_kernel(g)
    elems = [to_kernel(hol_from_translation(g, v)) for v in g.elements()]
    # not a quaternion group: brace building never reads the witness
    return _subgroup(kern, TargetKind("quaternion", 2, max(1, g.odd_order)), elems, (elems[0], elems[0]))


def test_trivial_brace_from_translations():
    bt = brace_from_subgroup(translation_subgroup([8]))
    assert verify_brace(bt)
    assert is_trivial(bt)


def test_cyclic_canonical_quaternion_brace():
    subs, _ = list_regular(make_group([16]), parse_kind("q16"))
    bt = brace_from_subgroup(subs[0])
    assert verify_brace(bt)
    assert not is_trivial(bt)
    # multiplicative group is Q16, additive is C16
    assert subs[0].kind == parse_kind("q16")


def test_verify_brace_negative_control():
    bt = brace_from_subgroup(translation_subgroup([8]))
    rows = [list(r) for r in bt.circ]
    rows[3][4], rows[3][5] = rows[3][5], rows[3][4]  # corrupt one row
    bad = BraceTable(bt.group, tuple(tuple(r) for r in rows))
    assert not verify_brace(bad)
    assert brace_violation(bad) is not None


def test_all_small_braces_verify():
    checked = 0
    for nspec, kind in [("c8", "q8"), ("c2xc4", "q8"), ("c2xc4", "d8"), ("c8", "d8"),
                        ("c4", "q4"), ("c2xc2", "d4"), ("c16", "d16"), ("c2xc8", "q16")]:
        _, classes = list_regular(parse_group(nspec), parse_kind(kind))
        for cls in classes:
            bt = brace_from_subgroup(cls.representative)
            assert verify_brace(bt)
            assert lambda_is_homomorphism_reference(bt)
            assert bt.lam == lambda_reference(bt)
            checked += 1
    assert checked >= 10


def test_lambda_reconstructs_subgroup():
    """a -> (a, lambda_a) recovers exactly the subgroup's elements."""
    g = parse_group("c2xc8")
    sub = list_regular(g, parse_kind("d16"))[0][0]
    bt = brace_from_subgroup(sub)
    # g_a acts as b -> a o b, so the circ rows are exactly the subgroup's perms
    rebuilt = {tuple(bt.circ[a]) for a in range(g.order)}
    elems = list(g.elements())
    original = {
        tuple(g.index(hol_apply(from_kernel(g, e), b)) for b in elems) for e in sub.elements
    }
    assert rebuilt == original


def test_brace_from_non_regular_rejected():
    g = make_group([8])
    kern = get_kernel(g)
    translations = [to_kernel(hol_from_translation(g, (v,))) for v in range(8)]
    inversion = (bytes(kern.spaces[0].neg_idx),)
    # duplicate translation parts; |N|/2 elements; |N| + 1 elements covering every translation
    for elems in ([translations[v % 4] for v in range(8)], translations[:4], translations + [inversion]):
        sub = _subgroup(kern, parse_kind("q8"), elems, (elems[0], elems[0]))
        with pytest.raises(InvalidInputError):
            brace_from_subgroup(sub)


def test_ybe_trivial_brace_is_flip():
    bt = brace_from_subgroup(translation_subgroup([2, 4]))
    sol = ybe_solution(bt)
    n = bt.size
    assert all(sol.apply(x, y) == (y, x) for x in range(n) for y in range(n))


def test_ybe_checks_hold_for_order8_braces():
    for nspec, kind in [("c8", "q8"), ("c2xc4", "q8"), ("c2xc4", "d8"), ("c2xc2xc2", "d8")]:
        _, classes = list_regular(parse_group(nspec), parse_kind(kind))
        for cls in classes:
            sol = ybe_solution(brace_from_subgroup(cls.representative))
            assert is_right_nondegenerate(sol)


def test_conjugate_subgroups_give_isomorphic_braces():
    """Aut-conjugacy matches brace isomorphism (checked by direct search)."""
    g = parse_group("c2xc8")
    subs, classes = list_regular(g, parse_kind("d16"))
    from holobrace.endo import aut_apply, enumerate_aut

    auts = list(enumerate_aut(g))
    elems = list(g.elements())
    index = {e: i for i, e in enumerate(elems)}

    def braces_isomorphic(b1, b2):
        for aut in auts:
            perm = [index[aut_apply(g, aut, e)] for e in elems]
            if all(
                perm[b1.circ[a][b]] == b2.circ[perm[a]][perm[b]]
                for a in range(len(elems))
                for b in range(len(elems))
            ):
                return True
        return False

    reps = [brace_from_subgroup(c.representative) for c in classes]
    # distinct classes: pairwise non-isomorphic braces
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not braces_isomorphic(reps[i], reps[j])
    # same class: conjugate subgroup gives an isomorphic brace
    cls = classes[0]
    same_orbit = [s for s in subs if s.key != cls.representative.key]
    partner = next(
        s
        for s in same_orbit
        if braces_isomorphic(brace_from_subgroup(cls.representative), brace_from_subgroup(s))
    )
    assert partner is not None


def test_brace_export_json():
    bt = brace_from_subgroup(translation_subgroup([8]))
    payload = json.loads(bt.dump())
    assert payload["schema"] == "v1"
    assert payload["factors"] == [8]
    assert len(payload["circ"]) == 8 and all(len(r) == 8 for r in payload["circ"])


@pytest.mark.parametrize("spec", ["c3xc8xc11", "c2xc32", "c5xc2xc8", "c7xc2xc8"])
def test_add_table_matches_group_addition(spec):
    g = parse_group(spec)
    elems = list(g.elements())
    reference = tuple(tuple(g.index(g.add(a, b)) for b in elems) for a in elems)
    assert _add_table(g) == reference


def test_trivial_brace_past_256_elements():
    # C3 x C8 x C11 has 264 elements: no check depends on a bytes row
    bt = brace_from_subgroup(translation_subgroup([3, 8, 11]))
    assert is_trivial(bt)
    sol = ybe_solution(bt)  # verifies the brace first
    n = bt.size
    assert n == 264
    assert all(sol.apply(x, y) == (y, x) for x in range(n) for y in range(n))


# -- O(n^3) oracles: every triple visited, no permutation identities --------------


def brace_violation_reference(bt):
    """First failure of the brace axioms on circ, as (axiom, a, b, c), or None."""
    n = bt.size
    circ = bt.circ
    rng = range(n)
    for a in rng:
        if sorted(circ[a]) != list(rng):
            return ("row-not-bijective", a)
        if circ[a][0] != a or circ[0][a] != a:
            return ("identity", a)
    for a in rng:
        for b in rng:
            ab = circ[a][b]
            for c in rng:
                if circ[ab][c] != circ[a][circ[b][c]]:
                    return ("associativity", a, b, c)
    g = bt.group
    elems = list(g.elements())
    add_tab = [[g.index(g.add(x, y)) for y in elems] for x in elems]
    neg = [g.index(g.neg(x)) for x in elems]
    for a in rng:
        row = circ[a]
        for b in rng:
            left_part = add_tab[row[b]][neg[a]]
            for c in rng:
                if row[add_tab[b][c]] != add_tab[left_part][row[c]]:
                    return ("brace-relation", a, b, c)
    return None


def lambda_reference(bt):
    """lambda_a(b) = -a + a o b by the group's own arithmetic."""
    g = bt.group
    elems = list(g.elements())
    return tuple(
        tuple(g.index(g.sub(elems[bt.circ[a][b]], elems[a])) for b in range(bt.size))
        for a in range(bt.size)
    )


def lambda_is_homomorphism_reference(bt):
    """lambda_{a o b} = lambda_a lambda_b for every a, b, compared at every c."""
    n = bt.size
    lam = lambda_reference(bt)
    for a in range(n):
        la = lam[a]
        for b in range(n):
            lab = lam[bt.circ[a][b]]
            lb = lam[b]
            if any(lab[c] != la[lb[c]] for c in range(n)):
                return False
    return True


def ybe_violation_reference(table):
    """First failure of involutivity, as (axiom, x, y), or of the braid
    relation r12 r23 r12 = r23 r12 r23 on N^3, as (axiom, x, y, z), or None."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            u, v = table[x][y]
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = table[x][y]
                c, d = table[b][z]
                e, f = table[a][c]
                c2, d2 = table[y][z]
                a2, b2 = table[x][c2]
                e2, f2 = table[b2][d2]
                if (e, f, d) != (a2, e2, f2):
                    return ("braid", x, y, z)
    return None


def ybe_violation(table):
    """First failure of r as an involutive, left non-degenerate solution of
    the braid relation r12 r23 r12 = r23 r12 r23, or None.

    `table[x][y]` is r(x, y) = (sigma_x(y), tau_y(x)).  ("involutivity", x, y):
    r(r(x, y)) != (x, y).  ("left-degenerate", x): sigma_x is not a
    permutation.  ("braid", x, y): sigma_x sigma_y != sigma_u sigma_v for
    (u, v) = r(x, y); for involutive, left non-degenerate r this identity on
    N^2 is equivalent to the braid relation on N^3 (Rump's cycle-set identity,
    Adv. Math. 193, 2005).

    The identity at (x, y) is the identity at r(x, y) = (u, v) read
    backwards, since r(u, v) = (x, y), and it holds trivially where
    r(x, y) = (x, y).  So it is checked only where (u, v) > (x, y) in
    row-major order: the least failing pair is the smaller of its orbit,
    and the witness is the first failure of the full loop over N^2.
    """
    n = len(table)
    for x, row in enumerate(table):
        for y, (u, v) in enumerate(row):
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    sigma = [tuple(u for u, _ in row) for row in table]
    for x, s in enumerate(sigma):
        if sorted(s) != list(range(n)):
            return ("left-degenerate", x)
    for x, row in enumerate(table):
        s = sigma[x]
        for y, (u, v) in enumerate(row):
            if (u, v) > (x, y) and brace._compose(s, sigma[y]) != brace._compose(sigma[u], sigma[v]):
                return ("braid", x, y)
    return None


def ybe_violation_full(table):
    """`ybe_violation` with the braid identity checked at every (x, y) of N^2,
    both pairs of each orbit of r included."""
    n = len(table)
    for x, row in enumerate(table):
        for y, (u, v) in enumerate(row):
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    sigma = [tuple(u for u, _ in row) for row in table]
    for x, s in enumerate(sigma):
        if sorted(s) != list(range(n)):
            return ("left-degenerate", x)
    for x, row in enumerate(table):
        s = sigma[x]
        for y, (u, v) in enumerate(row):
            if brace._compose(s, sigma[y]) != brace._compose(sigma[u], sigma[v]):
                return ("braid", x, y)
    return None


def braid_certificate_by_entries(bt, table):
    """`braid_certificate` on a table of (u, v) pairs, each identity checked
    entry by entry, in its former order: ("involutivity", x, y): r(u, v) !=
    (x, y).  ("sigma-is-lambda", x, y): sigma_x(y) != lambda_x(y).
    ("preserves-circ", x, y): u o v != x o y.  ("lambda-homomorphism", g, b):
    as in `braid_certificate`."""
    circ = bt.circ
    lam = bt.lam
    for x, row in enumerate(table):
        for y, (u, v) in enumerate(row):
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    for x, row in enumerate(table):
        if tuple(u for u, _ in row) != lam[x]:
            return ("sigma-is-lambda", x, next(y for y, (u, _) in enumerate(row) if u != lam[x][y]))
    for x, row in enumerate(table):
        if tuple(circ[u][v] for u, v in row) != circ[x]:
            return ("preserves-circ", x, next(y for y, (u, v) in enumerate(row) if circ[u][v] != circ[x][y]))
    for g in circ_generators(circ):
        lam_g, rho_g = lam[g], circ[g]
        for b, lam_b in enumerate(lam):
            if lam[rho_g[b]] != brace._compose(lam_g, lam_b):
                return ("lambda-homomorphism", g, b)
    return None


def split_rows(table):
    """(sigma, tau) rows of a table of (u, v) pairs, the arguments of
    `braid_certificate`."""
    return tuple(tuple(u for u, _ in row) for row in table), tuple(tuple(v for _, v in row) for row in table)


def pair_formula_table(bt):
    """r(x, y) = (u, u' o (x o y)) with u = lambda_x(y), one pair at a time."""
    circ = bt.circ
    inv = [row.index(0) for row in circ]  # a' with a o a' = 0 = a' o a
    return tuple(
        tuple((u, circ[inv[u]][xy]) for u, xy in zip(bt.lam[x], circ[x])) for x in range(bt.size)
    )


def assert_checks_agree(bt):
    """The fast checks and the oracles give the same verdicts on bt."""
    ref = brace_violation_reference(bt)
    assert brace_violation(bt) == (ref and ref[:3])
    if ref is None:
        table = ybe_solution(bt).table  # passes `braid_certificate`
        assert table == pair_formula_table(bt)
        assert braid_certificate_by_entries(bt, table) is None
        assert ybe_violation(table) == ybe_violation_full(table) == ybe_violation_reference(table) is None


def class_braces(pairs):
    return [
        brace_from_subgroup(cls.representative)
        for group, kind in pairs
        for cls in list_regular(group, kind)[1]
    ]


def table1_pairs():
    return [
        (two, parse_kind(fam + str(two.order)))
        for n in (2, 3, 4)
        for fam in "qd"
        for two in admissible_types(n)
    ]


def export_by_dump(bt):
    """The export text of `bt`, each circ row written by `_dump(row)`."""
    payload = bt.to_json()
    rows = payload.pop("circ")
    return "".join(_dump_list(payload, "circ", ([_dump(row)] for row in rows)))


def test_export_rows_match_the_json_dump_byte_for_byte():
    # every class brace of table 1, the pairs of the `braces` benchmark
    # workload, and the trivial brace of C3 x C8 x C11, whose indices reach 263
    pairs = table1_pairs() + [
        (parse_group(N), parse_kind(G)) for N, G in [("c2xc32", "q64"), ("c5xc2xc8", "d80"), ("c7xc2xc8", "d112")]
    ]
    braces = class_braces(pairs) + [brace_from_subgroup(translation_subgroup([3, 8, 11]))]
    assert len(braces) == 31 + 3 * 6 + 1
    for bt in braces:
        text = "".join(_brace_pieces(bt))
        assert text == export_by_dump(bt) == bt.dump()


def test_checks_agree_with_oracles_on_table1_braces():
    braces = class_braces(table1_pairs())
    assert len(braces) == 31  # the sum of the c column of table 1
    for bt in braces:
        assert_checks_agree(bt)


def test_checks_agree_with_oracles_at_order_32():
    def pairs(groups):
        return [(parse_group(N), parse_kind(G)) for N in groups for G in ("q32", "d32")]

    # C4 x C8 and C2 x C2 x C8 carry no quaternion or dihedral brace of order
    # 32; C32 carries 1 + 1 and C2 x C16 carries 6 + 6
    assert class_braces(pairs(["c4xc8", "c2xc2xc8"])) == []
    braces = class_braces(pairs(["c32", "c2xc16"]))
    assert len(braces) == 14
    for bt in braces:
        assert_checks_agree(bt)


def nontrivial_brace(nspec, kind):
    return next(
        bt for bt in class_braces([(parse_group(nspec), parse_kind(kind))]) if not is_trivial(bt)
    )


def test_corrupted_circ_is_rejected():
    bt = nontrivial_brace("c2xc8", "d16")
    rows = [list(r) for r in bt.circ]
    rows[3][5] = rows[3][6]
    bad = BraceTable(bt.group, tuple(map(tuple, rows)))
    assert brace_violation(bad) == brace_violation_reference(bad) == ("row-not-bijective", 3)
    # swapping two entries keeps every row a permutation fixing 0, so only
    # associativity and the brace relation are left to catch it
    bt = nontrivial_brace("c2xc4", "q8")
    n = bt.size
    for a in range(1, n):
        for b, c in combinations(range(1, n), 2):
            rows = [list(r) for r in bt.circ]
            rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
            bad = BraceTable(bt.group, tuple(map(tuple, rows)))
            ref = brace_violation_reference(bad)
            assert ref is not None and brace_violation(bad) == ref[:3]


def test_relabelled_group_fails_the_brace_relation():
    # a o' b = pi(pi(a) o pi(b)) for an involution pi fixing 0 that is not
    # additive: (N, o') is still a group, but lambda'_a is not additive
    bt = brace_from_subgroup(translation_subgroup([8]))
    pi = [0, 2, 1, 3, 4, 5, 6, 7]
    circ = tuple(tuple(pi[bt.circ[pi[a]][pi[b]]] for b in range(8)) for a in range(8))
    bad = BraceTable(bt.group, circ)
    ref = brace_violation_reference(bad)
    assert ref[0] == "brace-relation" and brace_violation(bad) == ref[:3]


def with_circ(bt, circ):
    return BraceTable(bt.group, tuple(map(tuple, circ)))


def rho_1_orbits(circ):
    """The orbits of b -> 1 o b, 0's first."""
    seen, orbits = set(), []
    for x in range(len(circ)):
        orbit = []
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = circ[1][x]
        if orbit:
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("nspec,kind", [("c2xc8", "d16"), ("c2xc16", "q32")])
def test_swaps_outside_the_generators_are_named_like_the_oracle(nspec, kind):
    bt = nontrivial_brace(nspec, kind)
    n = bt.size
    gens = set(circ_generators(bt.circ))
    swaps = [(1, 2), (1, n - 1), (n // 2, n // 2 + 1), (n - 2, n - 1)]

    def assert_named_like_the_oracle(rows, b, c):
        circ = [list(r) for r in bt.circ]
        for a in rows:
            circ[a][b], circ[a][c] = circ[a][c], circ[a][b]
        bad = with_circ(bt, circ)
        ref = brace_violation_reference(bad)
        assert ref is not None and brace_violation(bad) == ref[:3]
        return ref[1]

    # one swap inside a row that is not a generator
    rows = [a for a in range(1, n) if a not in gens]
    for a in rows[:: max(1, len(rows) // 4)]:
        for b, c in swaps:
            assert_named_like_the_oracle([a], b, c)
    # the same swap in every row of a rho_1-orbit keeps rho_{1 o b} = rho_1
    # rho_b for every b: the first failure is at a later generator
    firsts = {
        assert_named_like_the_oracle(orbit, b, c)
        for orbit in rho_1_orbits(bt.circ)[1:]
        for b, c in swaps
    }
    assert min(firsts) > 1


def relabelled(bt, i, j):
    """a o' b = pi(pi(a) o pi(b)) for the transposition pi = (i j)."""
    n = bt.size
    pi = list(range(n))
    pi[i], pi[j] = j, i
    return with_circ(bt, [[pi[bt.circ[pi[a]][pi[b]]] for b in range(n)] for a in range(n)])


def test_relabellings_that_break_only_the_brace_relation():
    # (N, o') is a group isomorphic to (N, o), so every identity but the brace
    # relation holds; no transposition fixing 0 is additive on a group of order 16
    braces = class_braces([(parse_group("c16"), parse_kind("d16"))])
    braces += [brace_from_subgroup(translation_subgroup(orders)) for orders in ([16], [2, 2, 4])]
    witnesses = set()
    for bt in braces:
        for i, j in combinations(range(1, 16), 2):
            bad = relabelled(bt, i, j)
            ref = brace_violation_reference(bad)
            assert ref[0] == "brace-relation" and brace_violation(bad) == ref[:3]
            witnesses.add(ref[1:3])
    # failures first at some a > 1, and first at a unit vector b > 1
    assert any(a > 1 for a, _ in witnesses) and any(b > 1 for _, b in witnesses)


def right_nested_products(circ, gens):
    """Every g1 o (g2 o (... o (gk o 0))) with each gi in gens."""
    products, last = {0}, set()
    while products != last:
        last = set(products)
        products |= {circ[g][x] for g in gens for x in last}
    return products


def test_circ_generators_are_few_and_generate():
    # table 1, order 32, and the pairs of the `braces` benchmark workload
    pairs = table1_pairs()
    pairs += [(parse_group(N), parse_kind(G)) for N in ("c32", "c2xc16") for G in ("q32", "d32")]
    pairs += [(parse_group(N), parse_kind(G)) for N, G in
              [("c2xc32", "q64"), ("c5xc2xc8", "d80"), ("c7xc2xc8", "d112")]]
    braces = class_braces(pairs)
    assert len(braces) == 31 + 14 + 3 * 6
    for bt in braces:
        n = bt.size
        gens = circ_generators(bt.circ)
        assert len(gens) <= n.bit_length() - 1  # floor(log2 n)
        assert right_nested_products(bt.circ, gens) == set(range(n))


def test_each_brace_builds_only_the_rows_it_reads(monkeypatch):
    # n = 112: circ is n rows; the brace check reads lambda and the addition
    # table, which the braces of one group share, so the first check builds
    # its n rows and no later check, lambda or YBE solution builds a row
    group, kind = parse_group("c7xc2xc8"), parse_kind("d112")
    reps = [cls.representative for cls in list_regular(group, kind)[1]]
    n = group.order
    _add_table.cache_clear()
    calls = []
    images = HolKernel.images
    monkeypatch.setattr(HolKernel, "images", lambda kern, x: calls.append(x) or images(kern, x))

    def count(fn, *args):
        before = len(calls)
        return fn(*args), len(calls) - before

    assert [f.name for f in fields(BraceTable)] == ["group", "circ"]
    assert len(reps) == 6
    for i, rep in enumerate(reps):
        bt, built = count(brace_from_subgroup, rep)
        assert built == n
        ok, verified = count(verify_brace, bt)
        assert ok and verified == (n if i == 0 else 0)
        assert count(ybe_solution, bt)[1] == 0
        assert count(lambda: bt.lam)[1] == 0


def test_corrupted_ybe_pair_is_rejected():
    table = [list(r) for r in d16_table()]
    table[3][5] = table[3][6]
    bad = tuple(map(tuple, table))
    fast, ref = ybe_violation(bad), ybe_violation_reference(bad)
    assert fast is not None and ref is not None and fast[0] == ref[0]
    assert fast == ybe_violation_full(bad)
    # sigma_3(5) changed too: the rows check sigma = lambda first
    assert braid_certificate(d16_brace(), *split_rows(bad)) == ("sigma-is-lambda", 3, 5)
    assert braid_certificate_by_entries(d16_brace(), bad) == ("involutivity", 3, 5)


def involutive_table(sigma):
    """The involutive map r(x, y) = (u, sigma_u^{-1}(x)) with u = sigma_x(y)."""
    n = len(sigma)
    inv = [{v: i for i, v in enumerate(s)} for s in sigma]
    return tuple(tuple((sigma[x][y], inv[sigma[x][y]][x]) for y in range(n)) for x in range(n))


def test_cycle_set_identity_is_the_braid_relation_on_three_points():
    # every involutive, left non-degenerate map on 3 points is one of these 6^3
    braided = 0
    for sigma in product(permutations(range(3)), repeat=3):
        table = involutive_table(sigma)
        fast, ref = ybe_violation(table), ybe_violation_reference(table)
        assert fast == ybe_violation_full(table)
        assert (fast is None) == (ref is None)
        assert fast is None or (fast[0], ref[0]) == ("braid", "braid")
        braided += fast is None
    assert 0 < braided < 6**3
    # the identity map is an involutive solution, but not left non-degenerate
    flat = tuple(tuple((x, y) for y in range(3)) for x in range(3))
    assert ybe_violation_reference(flat) is None
    assert ybe_violation(flat) == ("left-degenerate", 0)


def test_braid_certificate_composes_rows_only_on_the_generators(monkeypatch):
    # n = 112: the check once per orbit of r made about n^2 = 12,544 row
    # compositions per brace; the certificate makes n per o-generator, and n
    # each for involutivity and for r preserving o; the solution builds its
    # tau rows with n more
    group, kind = parse_group("c7xc2xc8"), parse_kind("d112")
    braces = class_braces([(group, kind)])
    n = group.order
    assert len(braces) == 6
    calls = []
    compose = brace._compose
    monkeypatch.setattr(brace, "_compose", lambda p, q: calls.append(1) or compose(p, q))

    def count(fn, *args):
        before = len(calls)
        return fn(*args), len(calls) - before

    for bt in braces:
        assert count(lambda: bt.lam)[1] == n  # lambda_a = tau_{-a} rho_a, derived once
        ok, verified = count(verify_brace, bt)
        assert ok
        sol, solved = count(ybe_solution, bt)  # verifies the brace again
        gens = len(circ_generators(bt.circ))
        assert 0 < solved - verified <= (gens + 3) * n
        cert, certified = count(braid_certificate, bt, sol.sigma, sol.tau)
        assert cert is None and 0 < certified <= (gens + 2) * n
        assert ybe_violation_full(sol.table) is None


@cache
def d16_brace():
    """A non-trivial D16 brace on C2 x C8."""
    return nontrivial_brace("c2xc8", "d16")


@cache
def d16_table():
    """The YBE solution table of `d16_brace()`."""
    return ybe_solution(d16_brace()).table


def assert_certificate_is_sound(table):
    """The certificate of the D16 brace passes exactly its own solution
    table, and never a table the full braid loop rejects."""
    cert = braid_certificate(d16_brace(), *split_rows(table))
    assert (cert is None) == (table == d16_table())
    assert cert is not None or ybe_violation_full(table) is None


def cycle_sets(min_n, max_n):
    """sigma: n permutations of range(n), for some n in [min_n, max_n]."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=n, max_size=n)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(cycle_sets(3, 6))
def test_orbit_braid_check_matches_full_loop_on_random_maps(sigma):
    # every such map is involutive and left non-degenerate
    table = involutive_table(sigma)
    fast = ybe_violation(table)
    assert fast == ybe_violation_full(table)
    assert (fast is None) == (ybe_violation_reference(table) is None)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.tuples(*[st.integers(0, 15)] * 4))
def test_orbit_braid_check_matches_full_loop_on_corrupted_entries(entry):
    x, y, u, v = entry
    table = [list(row) for row in d16_table()]
    table[x][y] = (u, v)
    bad = tuple(map(tuple, table))
    fast = ybe_violation(bad)
    assert fast == ybe_violation_full(bad)
    if fast is None or fast[0] == "braid":
        assert (fast is None) == (ybe_violation_reference(bad) is None)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.tuples(*[st.integers(0, 15)] * 3))
def test_orbit_braid_check_matches_full_loop_on_transposed_sigma_rows(swap):
    # a transposition in one sigma row keeps r involutive and left
    # non-degenerate, so only the braid relation is left to catch it
    x, i, j = swap
    sigma = [[u for u, _ in row] for row in d16_table()]
    sigma[x][i], sigma[x][j] = sigma[x][j], sigma[x][i]
    table = involutive_table(sigma)
    fast = ybe_violation(table)
    assert fast == ybe_violation_full(table)
    assert (fast is None) == (ybe_violation_reference(table) is None)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(*[st.integers(0, 15)] * 4))
def test_braid_certificate_is_sound_on_corrupted_entries(entry):
    x, y, u, v = entry
    table = [list(row) for row in d16_table()]
    table[x][y] = (u, v)
    assert_certificate_is_sound(tuple(map(tuple, table)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(*[st.integers(0, 15)] * 3))
def test_braid_certificate_is_sound_on_transposed_sigma_rows(swap):
    x, i, j = swap
    sigma = [[u for u, _ in row] for row in d16_table()]
    sigma[x][i], sigma[x][j] = sigma[x][j], sigma[x][i]
    assert_certificate_is_sound(involutive_table(sigma))


@cache
def certified_braces():
    """The D16 brace and the 18 class braces of the `braces` benchmark pairs,
    each with its solution table."""
    pairs = [(parse_group(N), parse_kind(G)) for N, G in [("c2xc32", "q64"), ("c5xc2xc8", "d80"), ("c7xc2xc8", "d112")]]
    braces = [d16_brace()] + class_braces(pairs)
    assert len(braces) == 1 + 3 * 6
    return tuple((bt, ybe_solution(bt).table) for bt in braces)


def brace_and_points(k):
    """An index into `certified_braces()` and k points of that brace."""
    return st.integers(0, 18).flatmap(
        lambda i: st.tuples(st.just(i), *[st.integers(0, certified_braces()[i][0].size - 1)] * k)
    )


def assert_verdicts_agree(bt, table):
    """The row certificate fails iff the entrywise one does.  Past the first
    two identities both name the same failure: given sigma = lambda and
    involutivity, the n^2 entries of each later identity are the same."""
    cert, by_entries = braid_certificate(bt, *split_rows(table)), braid_certificate_by_entries(bt, table)
    assert (cert is None) == (by_entries is None)
    if cert is not None and cert[0] in ("preserves-circ", "lambda-homomorphism"):
        assert cert == by_entries


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(brace_and_points(4))
def test_row_certificate_agrees_with_the_entries_on_a_changed_entry(entry):
    i, x, y, u, v = entry
    bt, table = certified_braces()[i]
    bad = [list(row) for row in table]
    bad[x][y] = (u, v)
    assert_verdicts_agree(bt, tuple(map(tuple, bad)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(brace_and_points(3))
def test_row_certificate_agrees_with_the_entries_on_a_transposed_sigma_row(swap):
    i, x, a, b = swap
    bt, table = certified_braces()[i]
    sigma = [[u for u, _ in row] for row in table]
    sigma[x][a], sigma[x][b] = sigma[x][b], sigma[x][a]
    assert_verdicts_agree(bt, involutive_table(sigma))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(brace_and_points(4))
def test_row_certificate_agrees_with_the_entries_on_two_swapped_tau_entries(swap):
    i, x, a, y, b = swap
    bt, table = certified_braces()[i]
    bad = [list(row) for row in table]
    (u, v), (u2, v2) = bad[x][a], bad[y][b]
    bad[x][a], bad[y][b] = (u, v2), (u2, v)
    assert_verdicts_agree(bt, tuple(map(tuple, bad)))


def test_row_certificate_names_the_entrywise_failure_past_involutivity():
    # a stale lambda row on each brace: sigma = lambda and r involutive by
    # construction, so both certificates name the same first failing pair
    for bt, table in certified_braces():
        sigma = [list(row) for row in bt.lam]
        x = bt.size // 2
        sigma[x][1], sigma[x][2] = sigma[x][2], sigma[x][1]
        stale = BraceTable(bt.group, bt.circ)
        stale.__dict__["lam"] = tuple(map(tuple, sigma))
        bad = involutive_table(sigma)
        cert = braid_certificate(stale, *split_rows(bad))
        assert cert is not None and cert[0] == "preserves-circ"
        assert cert == braid_certificate_by_entries(stale, bad)


def test_solution_rows_match_the_pair_formula():
    # tau[x][y] = lambda_u^-1(x) is the v = u' o (x o y) of the pair formula
    for bt, table in certified_braces():
        assert table == pair_formula_table(bt)
        sol = ybe_solution(bt)
        assert all(sol.apply(x, y) == pair for x, row in enumerate(table) for y, pair in enumerate(row))


def test_braid_certificate_names_each_identity():
    bt, table = d16_brace(), d16_table()
    assert braid_certificate(bt, *split_rows(table)) is None
    # sigma_3 with two entries swapped, tau rebuilt so that r stays involutive
    sigma = [[u for u, _ in row] for row in table]
    sigma[3][4], sigma[3][6] = sigma[3][6], sigma[3][4]
    assert braid_certificate(bt, *split_rows(involutive_table(sigma))) == ("sigma-is-lambda", 3, 4)
    # two entries of tau swapped: sigma = lambda, but r(r(3, 4)) != (3, 4)
    lam, tau = split_rows(table)
    tau = [list(row) for row in tau]
    tau[3][4], tau[3][5] = tau[3][5], tau[3][4]
    assert tau[3][4] != tau[3][5]
    assert braid_certificate(bt, lam, tuple(map(tuple, tau))) == ("involutivity", 3, 4)
    # the same swap in lambda_3 itself: sigma = lambda again, but r no longer
    # preserves o (lambda is derived from circ, so only a stale row can do this)
    stale = BraceTable(bt.group, bt.circ)
    stale.__dict__["lam"] = tuple(map(tuple, sigma))
    bad = involutive_table(sigma)
    cert = braid_certificate(stale, *split_rows(bad))
    assert cert[0] == "preserves-circ" and cert == braid_certificate_by_entries(stale, bad)


def test_braid_certificate_names_malformed_rows():
    # rows that are not n tuples of n entries fail at their first bad x under
    # the identity of their family, instead of passing where zip truncates
    # or raising where an entry is missing
    bt, table = d16_brace(), d16_table()
    sigma, tau = split_rows(table)
    n = bt.size
    for name, i in (("sigma-is-lambda", 0), ("involutivity", 1)):

        def fails(family, i=i):
            rows = [sigma, tau]
            rows[i] = family
            return braid_certificate(bt, *rows)

        good = (sigma, tau)[i]
        assert fails(good) is None
        assert fails(good[:-1]) == (name, n - 1, 0)  # the last row missing
        assert fails(good + (good[0],)) == (name, n, 0)  # an extra row
        assert fails(good[:3] + (good[3][:-1],) + good[4:]) == (name, 3, n - 1)  # a short row
        assert fails(good[:3] + (good[3] + (0,),) + good[4:]) == (name, 3, 0)  # a long row
        assert fails(good[:3] + (list(good[3]),) + good[4:]) == (name, 3, 0)  # a list row
        # a list row with a changed entry is named at that entry
        changed = list(good[3])
        changed[5], changed[6] = changed[6], changed[5]
        assert fails(good[:3] + (changed,) + good[4:]) == (name, 3, 5)
        # the first bad x, however the later rows are malformed
        assert fails(good[:3] + (good[3][:-2],) + good[4:-1]) == (name, 3, n - 2)


def first_non_homomorphic_pair(bt):
    """The first (a, b) of the full double loop with lambda_{a o b} !=
    lambda_a lambda_b, lambda by the group's own arithmetic, or None."""
    n = bt.size
    lam = lambda_reference(bt)
    return next(
        ((a, b) for a in range(n) for b in range(n)
         if any(lam[bt.circ[a][b]][c] != lam[a][lam[b][c]] for c in range(n))),
        None,
    )


def test_groups_that_are_no_brace_fail_the_lambda_homomorphism(monkeypatch):
    # o' relabelled by a transposition fixing 0 is a group but no brace.
    # Built past the brace check, its table is involutive, sigma = lambda and
    # r preserves o', so only the homomorphism is left to fail, and it names
    # the first failing pair of the full loop: the least failing a is a
    # o-generator, as for associativity
    braces = class_braces([(parse_group("c16"), parse_kind("d16"))])
    braces += [brace_from_subgroup(translation_subgroup(orders)) for orders in ([16], [2, 2, 4])]
    monkeypatch.setattr(brace, "verify_brace", lambda bt: True)
    firsts = set()
    for bt in braces:
        for i, j in combinations(range(1, 16), 2):
            bad = relabelled(bt, i, j)
            assert brace_violation(bad)[0] == "brace-relation"
            a, b = first_non_homomorphic_pair(bad)
            with pytest.raises(InternalConsistencyError, match=rf"^lambda-homomorphism fails at \({a}, {b}\)$"):
                ybe_solution(bad)
            firsts.add(a)
    # some first failures are past the least o-generator, which is always 1
    assert any(a > 1 for a in firsts)
