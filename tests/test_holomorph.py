from collections import Counter
from functools import cache
from itertools import product
from math import gcd, lcm

import pytest

from holobrace.abelian import make_group
from holobrace.endo import make_endo
from holobrace.errors import InvalidInputError
from holobrace.kernel import get_kernel
from holobrace.holomorph import (
    HolElement,
    exponent_bound,
    hol_apply,
    hol_compose,
    hol_identity,
    hol_invert,
    hol_order,
    order_spectrum,
)

from subgroup_oracles import hol_from_translation, hol_power, pool_elements


def affine_spectrum_oracle(m):
    """Independent model: all maps x -> a x + b on Z/m as permutation tuples."""
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    perms = []
    for a in units:
        for b in range(m):
            perms.append(tuple((a * x + b) % m for x in range(m)))
    counts = {}
    for p in perms:
        seen = [False] * m
        order = 1
        for start in range(m):
            if seen[start]:
                continue
            ln, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = p[cur]
                ln += 1
            order = lcm(order, ln)
        counts[order] = counts.get(order, 0) + 1
    return counts


def test_hol_apply_examples():
    c8 = make_group([8])
    ident = hol_identity(c8)
    for v in range(8):
        assert hol_apply(ident, (v,)) == (v,)
    t = hol_from_translation(c8, (5,))
    assert hol_apply(t, (0,)) == (5,)
    x = HolElement(c8, (make_endo(2, (3,), [[3]]),), (2,))
    assert hol_apply(x, (5,)) == ((3 * 5 + 2) % 8,)


def test_compose_and_invert():
    c16 = make_group([16])
    ident = hol_identity(c16)
    x = HolElement(c16, (make_endo(2, (4,), [[15]]),), (1,))
    assert hol_compose(x, ident) == x
    t = hol_from_translation(c16, (5,))
    assert hol_invert(t) == hol_from_translation(c16, (11,))
    # (15, 1) is an involution: 15 = -1 and -(-1)*1 = 1
    assert hol_compose(x, x) == ident
    assert hol_invert(x) == x


def test_compose_matches_affine_composition():
    g = make_group([2, 4])
    from holobrace.endo import enumerate_aut

    auts = list(enumerate_aut(g).blocks[0])
    elems = list(g.elements())
    sample = [HolElement(g, (a,), v) for a in auts[::3] for v in elems[::3]]
    for x in sample:
        for y in sample:
            z = hol_compose(x, y)
            for e in elems:
                assert hol_apply(z, e) == hol_apply(x, hol_apply(y, e))


def test_hol_order_examples():
    c8 = make_group([8])
    assert hol_order(hol_identity(c8)) == 1
    assert hol_order(hol_from_translation(c8, (1,))) == 8
    assert hol_order(hol_from_translation(c8, (2,))) == 4


def test_group_mismatch_raises():
    c8 = make_group([8])
    c16 = make_group([16])
    with pytest.raises(InvalidInputError):
        hol_compose(hol_identity(c8), hol_identity(c16))
    with pytest.raises(InvalidInputError):
        hol_apply(hol_identity(c8), (3, 1))


def test_exponent_bound_values():
    # K = ceil(log_p(r+1)) + d - 1
    assert exponent_bound(make_group([2, 2, 2, 2]), 2) == 8  # ceil(log2 5)=3, d=1
    assert exponent_bound(make_group([16]), 2) == 16  # 1 + 4 - 1
    assert exponent_bound(make_group([4, 8]), 2) == 16  # ceil(log2 3)=2, d=3
    assert exponent_bound(make_group([3]), 3) == 3
    assert exponent_bound(make_group([3]), 2) == 1


def test_exponent_bound_is_respected():
    # every 2-element order stays within the bound (C4 x C8 peaks at 8 < 16)
    spec = order_spectrum(make_group([4, 8]))
    two_orders = [k for k in spec if k & (k - 1) == 0]
    assert max(two_orders) <= exponent_bound(make_group([4, 8]), 2)
    spec44 = order_spectrum(make_group([4, 4]))
    assert max(k for k in spec44 if k & (k - 1) == 0) <= exponent_bound(make_group([4, 4]), 2)


def test_order_spectrum_no_16s_in_c4xc8():
    spec = order_spectrum(make_group([4, 8]))
    assert 16 not in spec
    assert max(spec) == 8
    assert sum(spec.values()) == 4096


def test_order_spectrum_small_oracles():
    # Hol(C4) and Hol(C3) against an independent affine-permutation model
    assert order_spectrum(make_group([4])) == affine_spectrum_oracle(4)
    assert order_spectrum(make_group([3])) == affine_spectrum_oracle(3)
    assert 4 in order_spectrum(make_group([4]))


def test_order_spectrum_cyclic_oracle_wider():
    for m in (5, 8, 9, 12):
        assert order_spectrum(make_group([m])) == affine_spectrum_oracle(m)


def pool_spectrum_oracle(group):
    """The per-element walk: the order of every element of the full pool, as
    the lcm of its components' orders (each memoized here)."""
    kern = get_kernel(group)
    orders = [cache(sp.order) for sp in kern.spaces]
    counts = Counter(lcm(*(o(a) for o, a in zip(orders, x))) for x in pool_elements(kern.full_pool()))
    return dict(sorted(counts.items()))


@pytest.mark.parametrize(
    "orders", [[4, 8], [2, 2, 2, 2], [3, 2, 2], [4, 32], [2, 2, 16], [5, 7, 2, 8], [9, 3, 4]], ids=str
)
def test_order_spectrum_matches_the_per_element_walk(monkeypatch, orders):
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", str(1 << 19))  # |Hol(C2^4)| = 322560
    group = make_group(orders)
    assert order_spectrum(group) == pool_spectrum_oracle(group)


def test_power_formula():
    """x^{2^k} = (A^{2^k}, (I + A + ... + A^{2^k-1}) v)."""
    from holobrace.endo import endo_apply, endo_compose, enumerate_aut

    g = make_group([2, 8])
    auts = list(enumerate_aut(g).blocks[0])
    elems = list(g.elements())
    for a in auts[::5]:
        for v in elems[::5]:
            x = HolElement(g, (a,), v)
            for k in (1, 2, 3):
                direct = hol_power(x, 1 << k)
                # geometric sum sum_{i<2^k} A^i applied to v
                acc = g.identity()
                term = v
                for _ in range(1 << k):
                    acc = g.add(acc, term)
                    term = endo_apply(a, term)
                a_pow = a
                for _ in range(k):
                    a_pow = endo_compose(a_pow, a_pow)
                assert direct == HolElement(g, (a_pow,), acc)


def test_action_is_faithful():
    g = make_group([2, 4])
    from holobrace.endo import enumerate_aut

    seen = {}
    for a in enumerate_aut(g).blocks[0]:
        for v in g.elements():
            x = HolElement(g, (a,), v)
            perm = tuple(hol_apply(x, e) for e in g.elements())
            assert perm not in seen
            seen[perm] = x


def test_hol_order_divides_hol_size():
    g = make_group([2, 4])
    from holobrace.endo import enumerate_aut

    size = g.order * enumerate_aut(g).order
    for a in enumerate_aut(g).blocks[0]:
        for v in g.elements():
            assert size % hol_order(HolElement(g, (a,), v)) == 0


def test_encode_is_injective():
    g = make_group([2, 4])
    from holobrace.endo import enumerate_aut

    codes = {
        HolElement(g, (a,), v).encode()
        for a in enumerate_aut(g).blocks[0]
        for v in g.elements()
    }
    assert len(codes) == 8 * enumerate_aut(g).order


# odd p-groups of rank 1 to 5 with |N_p| up to 243, and mixed ones
ADD_ROW_ORDERS = [
    [2, 2, 2, 2], [2, 64], [3, 8], [7, 2, 8],
    [243], [3, 81], [3, 9, 9], [3, 3, 27], [3, 3, 3, 9], [3, 3, 3, 3, 3],
    [5, 25], [5, 5, 5], [7, 7], [11, 11], [13], [3, 5, 4],
]


@pytest.mark.parametrize("orders", ADD_ROW_ORDERS, ids=str)
def test_add_rows_match_group_addition(orders):
    # the rows are built by translating blocks of rows; the oracle adds
    # every pair of points with `GroupSpec.add`, and negates with `neg`
    g = make_group(orders)
    spaces = get_kernel(g).spaces
    assert len(spaces) == len(g.primes)
    for sp in spaces:
        spec = sp.spec
        assert sp.add_rows == [bytes(sp.index[spec.add(a, v)] for a in sp.elems) for v in sp.elems]
        assert sp.neg_idx == [sp.index[spec.neg(e)] for e in sp.elems]


def images_by_sums(kern, x):
    """x as a permutation of the combined indices, one sum per point: the
    combined index of each product of component images."""
    return tuple(map(sum, product(*([v * s for v in a] for a, s in zip(x, kern.strides)))))


@pytest.mark.parametrize("orders", [[3, 5, 4], [3, 8, 11]], ids=str)
def test_images_match_the_product_formula(orders):
    # every element of Hol(N), three components each; C3 x C8 x C11 has
    # n = 264, past a bytes row
    kern = get_kernel(make_group(orders))
    assert len(kern.spaces) == 3
    checked = 0
    for x in pool_elements(kern.full_pool()):
        assert kern.images(x) == images_by_sums(kern, x)
        checked += 1
    assert checked == kern.hol_order()
