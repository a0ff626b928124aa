import functools
import itertools

import pytest

from holobrace.abelian import make_group
from holobrace.endo import (
    EndoMatrix,
    _inverse_mod_p,
    aut_generators,
    endo_apply,
    endo_compose,
    enumerate_aut,
    identity_endo,
    invert,
    is_unit,
    make_endo,
    sylow_generators,
    aut_order,
)
from holobrace.errors import CapacityError, InternalConsistencyError, InvalidInputError
from holobrace.kernel import PrimeSpace, get_kernel

from subgroup_oracles import endo_from_json, zero_endo


def gl_count_oracle(r, p=2):
    """Count of invertible r x r matrices over F_p, row by row.

    A matrix is invertible iff each row lies outside the span of the rows
    above it.  Every row is tried over all p^r vectors; the number of ways
    to finish depends only on the span so far, so it is memoized on that
    span (a set of vectors, built by brute force).
    """
    vectors = list(itertools.product(range(p), repeat=r))

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    @functools.lru_cache(maxsize=None)
    def completions(span):
        if len(span) == p**r:
            return 1
        total = 0
        for v in vectors:
            if v in span:
                continue
            grown = span
            for _ in range(p - 1):
                grown = grown | {add(u, v) for u in grown}
            total += completions(grown)
        return total

    return completions(frozenset([(0,) * r]))


def unit_filter_reference(group):
    """Every unit of End(N_p), fibre by fibre over the mod-p reductions.

    Column j ranges over the elements of order dividing p^{a_j}.  A matrix
    is a unit when its mod-p reduction is invertible, and that depends on
    the reductions of its columns alone.  So the candidate columns are
    grouped by reduction, and each invertible choice of reductions adds
    every matrix of the product of its fibres.
    """
    p = group.primes[0]
    exps = group.exponents(p)
    r = len(exps)
    fibres = []
    for a in exps:
        by_reduction = {}
        for g in group.elements():
            if all(v * p**a % q == 0 for v, q in zip(g, group.factors)):
                by_reduction.setdefault(tuple(v % p for v in g), []).append(g)
        fibres.append(by_reduction)
    units = set()
    for reductions in itertools.product(*fibres):
        if _inverse_mod_p(tuple(zip(*reductions)), p, r) is not None:
            for cols in itertools.product(*(f[red] for f, red in zip(fibres, reductions))):
                units.add(EndoMatrix(p, exps, tuple(zip(*cols))))
    return units


def sylow_range_reference(group):
    """The units of End(N_p) whose mod-p reduction is unipotent upper
    triangular, listed entry by entry: 1 mod p on the diagonal, free above
    it, 0 mod p (and divisible as End(N_p) requires) below it."""
    p = group.primes[0]
    exps = group.exponents(p)
    r = len(exps)
    ranges = []
    for i in range(r):
        for j in range(r):
            mod = p ** exps[i]
            if i == j:
                ranges.append(range(1, mod, p))
            elif i > j:
                ranges.append(range(0, mod, p ** max(1, exps[i] - exps[j])))
            else:
                ranges.append(range(mod))
    return {
        EndoMatrix(p, exps, tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r)))
        for flat in itertools.product(*ranges)
    }


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def block_matrices(space, perms):
    """The matrices of linear permutations, read off the images of the basis."""
    exps = space.spec.exponents(space.p)
    r = len(exps)
    basis = [space.index[tuple(int(k == j) for k in range(r))] for j in range(r)]
    return {
        EndoMatrix(space.p, exps, tuple(zip(*(space.elems[a[b]] for b in basis)))) for a in perms
    }


def test_endo_apply_identity_and_zero():
    g = make_group([2, 8])
    ident = identity_endo(2, (1, 3))
    zero = zero_endo(2, (1, 3))
    for e in g.elements():
        assert endo_apply(ident, e) == e
        assert endo_apply(zero, e) == (0, 0)


def test_endo_apply_row_moduli():
    # rows [1,1],[4,1] on C2 x C8: row 1 mod 2, row 2 mod 8
    m = make_endo(2, (1, 3), [[1, 1], [4, 1]])
    assert endo_apply(m, (1, 1)) == (0, 5)


def test_divisibility_constraint_enforced():
    with pytest.raises(InvalidInputError):
        make_endo(2, (1, 3), [[1, 0], [2, 1]])  # (2,1) entry must be divisible by 4
    make_endo(2, (1, 3), [[1, 0], [4, 1]])  # and 4 is fine


def test_kernel_of_representation():
    # adding p^{a_i} multiples to entries does not change the canonical matrix
    base = make_endo(2, (1, 3), [[1, 1], [4, 3]])
    lifted = make_endo(2, (1, 3), [[1 + 2, 1 + 2], [4 + 8, 3 + 8]])
    assert base == lifted
    g = make_group([2, 8])
    for e in g.elements():
        assert endo_apply(base, e) == endo_apply(lifted, e)


def test_compose_identity_and_nilpotent():
    m = make_endo(2, (1, 3), [[1, 1], [4, 3]])
    ident = identity_endo(2, (1, 3))
    assert endo_compose(m, ident) == m
    nil = make_endo(2, (1, 1), [[0, 1], [0, 0]])
    assert endo_compose(nil, nil) == zero_endo(2, (1, 1))


def test_is_unit_examples():
    assert is_unit(identity_endo(2, (1, 3)))
    assert not is_unit(zero_endo(2, (1, 3)))


def test_unit_count_c2xc8():
    # |Aut(C2 x C8)| = 2^4
    assert enumerate_aut(make_group([2, 8])).order == 16


def test_enumerate_aut_against_gl_oracle():
    assert enumerate_aut(make_group([2, 2, 2])).order == gl_count_oracle(3) == 168
    assert enumerate_aut(make_group([2, 2])).order == gl_count_oracle(2) == 6
    assert enumerate_aut(make_group([3])).order == 2


def test_enumerate_aut_gl4_oracle():
    assert enumerate_aut(make_group([2, 2, 2, 2])).order == gl_count_oracle(4) == 20160


def test_enumerate_aut_orders_table():
    # the |Aut(N)| values behind the order-16 table rows
    assert enumerate_aut(make_group([16])).order == 8
    assert enumerate_aut(make_group([4, 4])).order == 96
    assert enumerate_aut(make_group([2, 2, 4])).order == 192
    assert enumerate_aut(make_group([4, 8])).order == 128


def test_enumerate_aut_cap(monkeypatch):
    monkeypatch.setenv("HOLOBRACE_CAP", "1000")
    with pytest.raises(CapacityError):
        enumerate_aut(make_group([2, 2, 2, 2]))


def test_aut_order_uses_phi_for_odd_cyclic():
    assert aut_order(make_group([3])) == 2
    assert aut_order(make_group([9])) == 6
    assert aut_order(make_group([3, 8])) == 2 * 4
    assert aut_order(make_group([5, 2, 8])) == 4 * 16


def test_invert_examples():
    ident = identity_endo(2, (4,))
    assert invert(ident) == ident
    three = make_endo(2, (4,), [[3]])
    assert invert(three) == make_endo(2, (4,), [[11]])
    with pytest.raises(InvalidInputError):
        invert(zero_endo(2, (4,)))


def test_invert_random_units_by_search():
    g = make_group([2, 8])
    block = enumerate_aut(g).blocks[0]
    ident = identity_endo(2, (1, 3))
    for m in block[::3]:
        inv = invert(m)
        # oracle: the inverse is the unique unit composing to the identity
        matches = [u for u in block if endo_compose(m, u) == ident]
        assert matches == [inv]


@pytest.mark.parametrize(
    "orders", [[2], [4], [2, 2], [8], [2, 4], [2, 2, 2], [16], [2, 8], [4, 4], [2, 2, 4], [3], [9], [3, 3], [27], [3, 9]]
)
def test_ring_hom_soundness(orders):
    """apply(compose(M1, M2), g) = apply(M1, apply(M2, g)) for all g."""
    g = make_group(orders)
    p = g.primes[0]
    exps = g.exponents(p)
    mats = _matrix_sample(p, exps, limit=24)
    elems = list(g.elements())
    for m1 in mats:
        for m2 in mats:
            comp = endo_compose(m1, m2)
            for e in elems:
                assert endo_apply(comp, e) == endo_apply(m1, endo_apply(m2, e))


def _matrix_sample(p, exps, limit):
    """Deterministic spread of valid matrices, all of them when few."""
    r = len(exps)
    ranges = []
    for i in range(r):
        for j in range(r):
            step = p ** max(0, exps[i] - exps[j])
            ranges.append(range(0, p ** exps[i], step))
    all_flat = list(itertools.product(*ranges))
    if len(all_flat) > limit:
        stride = len(all_flat) // limit
        all_flat = all_flat[::stride][:limit]
    return [
        make_endo(p, exps, [flat[i * r : (i + 1) * r] for i in range(r)]) for flat in all_flat
    ]


@pytest.mark.parametrize("orders", [[4], [2, 2], [2, 4], [8], [2, 2, 2], [9], [3, 3], [2, 8], [4, 4]])
def test_unit_criterion_matches_bijectivity(orders):
    """is_unit(M) iff the induced map is a bijection on N, exhaustively."""
    g = make_group(orders)
    p = g.primes[0]
    exps = g.exponents(p)
    elems = list(g.elements())
    r = len(exps)
    ranges = []
    for i in range(r):
        for j in range(r):
            step = p ** max(0, exps[i] - exps[j])
            ranges.append(range(0, p ** exps[i], step))
    for flat in itertools.product(*ranges):
        m = make_endo(p, exps, [flat[i * r : (i + 1) * r] for i in range(r)])
        images = {endo_apply(m, e) for e in elems}
        assert is_unit(m) == (len(images) == len(elems))


def _shapes(p, max_order):
    """Every abelian p-group of order <= max_order, as factor lists."""

    def partitions(n, largest):
        if n == 0:
            yield ()
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    n = 1
    while p ** n <= max_order:
        yield from ([p**e for e in part] for part in partitions(n, n))
        n += 1


AUT_SHAPES = [
    orders
    for orders in (
        list(_shapes(2, 64))
        + list(_shapes(3, 81))
        + [[25], [5, 5], [49], [7, 7], [3, 8], [5, 2, 8], [3, 2, 2, 4]]
    )
    if aut_order(make_group(orders)) <= 1 << 18
]


def sylow_space(orders):
    return get_kernel(make_group(orders)).spaces[0]


def test_sylow_aut_perms_counts():
    # C2^4: unitriangular binary matrices, 2^6 of them
    assert len(sylow_space([2, 2, 2, 2]).sylow_aut_perms()) == 64
    # C16 (rank 1): every unit is 1 mod 2
    assert len(sylow_space([16]).sylow_aut_perms()) == 8
    # C2 x C8: |Aut| = 16 is a 2-group, so P is everything
    space = sylow_space([2, 8])
    assert len(space.sylow_aut_perms()) == 16
    assert space.sylow_aut_perms() == space.aut_perms()
    assert block_matrices(space, space.aut_perms()) == unit_filter_reference(make_group([2, 8]))


def test_sylow_aut_perms_is_exact_p_part():
    for orders in _shapes(2, 64):
        size = p_part(aut_order(make_group(orders)), 2)
        assert len(sylow_space(orders).sylow_aut_perms()) == size


def test_sylow_aut_perms_members_are_units():
    space = sylow_space([2, 2, 4])
    for m in block_matrices(space, space.sylow_aut_perms()):
        assert is_unit(m)
        # unipotent upper triangular mod 2: 1 on the diagonal, 0 below it
        for i, row in enumerate(m.rows):
            assert [v % 2 for v in row[: i + 1]] == [0] * i + [1]


@pytest.mark.parametrize("orders", AUT_SHAPES, ids=lambda o: "x".join(map(str, o)))
def test_aut_generators_generate_aut(orders):
    """The closure of the explicit generators is all of Aut(N)."""
    g = make_group(orders)
    for p, space in zip(g.primes, get_kernel(g).spaces):
        block = block_matrices(space, space.aut_perms())
        assert block == unit_filter_reference(g.component(p))
        assert len(block) == aut_order(g.component(p))


@pytest.mark.parametrize("orders", AUT_SHAPES, ids=lambda o: "x".join(map(str, o)))
def test_sylow_generators_generate_sylow(orders):
    """The closure of the Sylow generators is the unipotent upper triangular block."""
    g = make_group(orders)
    for p, space in zip(g.primes, get_kernel(g).spaces):
        block = block_matrices(space, space.sylow_aut_perms())
        assert block == sylow_range_reference(g.component(p))
        assert len(block) == p_part(aut_order(g.component(p)), p)


def test_blocks_check_their_size():
    space = PrimeSpace(make_group([2, 2, 2]))
    gens = [m for (m,) in aut_generators(make_group([2, 2, 2]))]
    for dropped in range(len(gens)):
        with pytest.raises(InternalConsistencyError):
            space._closed_block("full", 168, lambda: gens[:dropped] + gens[dropped + 1 :])
    sylow = sylow_generators(2, (1, 1, 1))
    with pytest.raises(InternalConsistencyError):
        space._closed_block("Sylow", 8, lambda: sylow[1:])
    with pytest.raises(InternalConsistencyError):
        space._closed_block("Sylow", 4, lambda: sylow)  # more than the formula allows
    assert len(space.aut_perms()) == 168 and len(space.sylow_aut_perms()) == 8


def test_block_cap_is_checked_before_building(monkeypatch):
    space = PrimeSpace(make_group([2, 2, 2, 2]))
    monkeypatch.setenv("HOLOBRACE_CAP", "20159")
    with pytest.raises(CapacityError) as err:
        space.aut_perms()
    assert (err.value.needed, err.value.cap) == (20160, 20159)
    monkeypatch.setenv("HOLOBRACE_CAP", "63")
    with pytest.raises(CapacityError) as err:
        space.sylow_aut_perms()
    assert (err.value.needed, err.value.cap) == (64, 63)
    assert not space._blocks
    monkeypatch.setenv("HOLOBRACE_CAP", "64")
    assert len(space.sylow_aut_perms()) == 64
    monkeypatch.setenv("HOLOBRACE_CAP", "63")  # a built block is checked again
    with pytest.raises(CapacityError):
        space.sylow_aut_perms()


@pytest.mark.parametrize("p,max_rank", [(2, 6), (3, 4), (5, 3)])
def test_aut_order_matches_gl_oracle(p, max_rank):
    for r in range(1, max_rank + 1):
        assert aut_order(make_group([p] * r)) == gl_count_oracle(r, p)


def test_autgroup_generators_generate():
    g = make_group([2, 2, 2])
    gens = aut_generators(g)
    assert gens
    block = unit_filter_reference(g)
    closure = {identity_endo(2, (1, 1, 1))}
    frontier = list(closure)
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            for nxt in (endo_compose(cur, gen[0]), endo_compose(gen[0], cur)):
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
    assert closure == block


def test_endo_json_roundtrip():
    m = make_endo(2, (1, 3), [[1, 1], [4, 3]])
    assert endo_from_json(m.to_json()) == m


@pytest.mark.parametrize("orders,non_additive", [([2, 8], 48), ([4, 8], 128), ([2, 2, 4], 576)])
def test_decode_refuses_every_non_additive_mixed_radix_map(orders, non_additive):
    """Every column choice whose mixed-radix map is a bijection: decode gives
    the matrix back when each column meets the order condition q_j c_j = 0,
    and None otherwise; it never raises."""
    g = make_group(orders)
    space = PrimeSpace(g)
    refused = accepted = 0
    for cols in itertools.product(range(space.m), repeat=len(orders)):
        perm = space.linear_perm(list(cols))
        if len(set(perm)) != space.m:
            continue
        decoded = space.decode(perm)
        if all(q % g.element_order(space.elems[c]) == 0 for q, c in zip(orders, cols)):
            mat, v = decoded
            assert space.aut_perm(mat) == perm and v == g.identity()
            accepted += 1
        else:
            assert decoded is None
            refused += 1
    assert (refused, accepted) == (non_additive, aut_order(g))


@pytest.mark.parametrize("orders", [[4], [2, 2], [3], [5], [7], [8], [2, 4], [2, 2, 2]])
def test_is_linear_matches_the_additivity_oracle(orders):
    """On every permutation fixing 0, is_linear agrees with p(a + b) =
    p(a) + p(b) checked on all pairs."""
    g = make_group(orders)
    space = PrimeSpace(g)
    elems, index = space.elems, space.index
    found = 0
    for rest in itertools.permutations(range(1, space.m)):
        perm = bytes((0,) + rest)
        additive = all(
            perm[index[g.add(a, b)]] == index[g.add(elems[perm[index[a]]], elems[perm[index[b]]])]
            for a in elems
            for b in elems
        )
        assert space.is_linear(perm) == additive
        found += additive
    assert found == aut_order(g)
