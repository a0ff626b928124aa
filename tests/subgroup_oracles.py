"""Oracles on subgroups of Hol(N) that no command runs: the validated
`HolElement` views of kernel elements, powers of a `HolElement`, every
element of a pool, and the constructors of pure translations and of
endomorphism matrices, recognition of a quaternion or dihedral subgroup by
brute-force witnesses, and the odd-part lifts of README "Odd-part lifts".

The count paths never build these: the search keeps each subgroup as its
sorted codes and one (X, Y) witness, and the odd-part reduction transfers
counts without building a lift.  The tests use them to check those paths
against definitions.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product

from holobrace.abelian import Element, GroupSpec, make_group
from holobrace.endo import EndoMatrix, identity_aut, make_endo
from holobrace.errors import InvalidInputError
from holobrace.holomorph import HolElement, hol_compose, hol_identity, hol_invert
from holobrace.kernel import HolKernel, KernelElement, Pool, get_kernel
from holobrace.presentations import DIHEDRAL, QUATERNION, TargetKind
from holobrace.regular import RegularSubgroup, _generated

# -- HolElement and EndoMatrix constructors ------------------------------------------


def hol_from_translation(group: GroupSpec, v: Element) -> HolElement:
    """The pure translation g -> g + v."""
    return HolElement(group, identity_aut(group), v)


def zero_endo(p: int, exponents) -> EndoMatrix:
    r = len(exponents)
    return make_endo(p, exponents, [[0] * r for _ in range(r)])


def endo_from_json(data: dict) -> EndoMatrix:
    """The inverse of `EndoMatrix.to_json`."""
    return make_endo(data["p"], tuple(data["exponents"]), data["rows"])


# -- HolElement <-> kernel element ---------------------------------------------------


def to_kernel(x: HolElement) -> KernelElement:
    """The byte-permutation form of a validated holomorph element."""
    group = x.group
    group.check_element(x.trans)
    out = []
    for k, (p, sp) in enumerate(zip(group.primes, get_kernel(group).spaces)):
        v_idx = sp.index[tuple(x.trans[group.prime_slice(p)])]
        out.append(sp.hol_perm(sp.aut_perm(x.aut[k]), v_idx))
    return tuple(out)


def from_kernel(group: GroupSpec, elem: KernelElement) -> HolElement:
    """The validated holomorph element of a byte-permutation tuple."""
    blocks, trans = [], []
    for sp, a in zip(get_kernel(group).spaces, elem):
        decoded = sp.decode(a)
        if decoded is None:
            raise InvalidInputError("permutation is not affine")
        mat, v = decoded
        blocks.append(mat)
        trans.extend(v)
    return HolElement(group, tuple(blocks), tuple(trans))


def kernel_invert(kern: HolKernel, x: KernelElement) -> KernelElement:
    return tuple(sp.inverse(a) for sp, a in zip(kern.spaces, x))


def hol_power(x: HolElement, k: int) -> HolElement:
    """x^k by repeated squaring, through validated holomorph elements."""
    if k < 0:
        return hol_power(hol_invert(x), -k)
    acc = hol_identity(x.group)
    base = x
    while k:
        if k & 1:
            acc = hol_compose(acc, base)
        base = hol_compose(base, base)
        k >>= 1
    return acc


def pool_elements(pool: Pool) -> Iterator[KernelElement]:
    """Every element of the pool multiplied out, in pool order: per
    component, each automorphism of its block with each translation."""
    per_component = ([sp.hol_perm(a, v) for a in auts for v in range(sp.m)] for sp, auts in zip(pool.spaces, pool.auts))
    return product(*per_component)


def hol_elements(sub: RegularSubgroup) -> tuple[HolElement, ...]:
    """The subgroup's elements as validated holomorph elements, in key order."""
    return tuple(from_kernel(sub.group, e) for e in sub.elements)


def witnesses(sub: RegularSubgroup) -> tuple[HolElement, HolElement]:
    """The subgroup's witness (X, Y) as validated holomorph elements."""
    x, y = sub.witness
    return from_kernel(sub.group, x), from_kernel(sub.group, y)


# -- recognition ---------------------------------------------------------------------


def classify_kernel(kern: HolKernel, elems: frozenset, check_closed: bool = True):
    """Kind plus (x, y) witnesses, or None.  `elems` must form a subgroup."""
    if check_closed:
        for a in elems:
            if kernel_invert(kern, a) not in elems:
                raise InvalidInputError("input set is not closed under inversion")
            for b in elems:
                if kern.compose(a, b) not in elems:
                    raise InvalidInputError("input set is not closed under composition")
    size = len(elems)
    n = 0
    s = size
    while s % 2 == 0:
        s //= 2
        n += 1
    if n < 2:
        return None
    mx = (1 << (n - 1)) * s
    half = (1 << (n - 2)) * s
    ident = kern.identity
    for x in sorted(elems, key=kern.code):
        if kern.order(x) != mx:
            continue
        pows = kern.power_list(x, mx)
        in_x = set(pows)
        x_inv = kernel_invert(kern, x)
        x_half = pows[half]
        for y in sorted(elems - in_x, key=kern.code):
            if kern.compose(kern.compose(y, x), kernel_invert(kern, y)) != x_inv:
                continue
            y2 = kern.compose(y, y)
            if y2 == x_half:
                return TargetKind(QUATERNION, n, s), (x, y)
            if y2 == ident:
                return TargetKind(DIHEDRAL, n, s), (x, y)
        # in Q/D every element outside <x> works, so one <x> decides
        return None
    return None


def classify_subgroup(elems) -> TargetKind | None:
    """Recognize a subgroup of Hol(N) as quaternion/dihedral via witnesses.

    `elems` is a collection of HolElement forming a subgroup.  Returns the
    TargetKind, or None when the group is neither (degenerate order-4 cases
    report C_4 as quaternion and C_2 x C_2 as dihedral).
    """
    elems = list(elems)
    if not elems:
        raise InvalidInputError("empty element set")
    if not isinstance(elems[0], HolElement):
        raise InvalidInputError("classify_subgroup expects HolElement values")
    group = elems[0].group
    kern = get_kernel(group)
    kelems = frozenset(to_kernel(e) for e in elems)
    if len(kelems) != len(elems):
        raise InvalidInputError("duplicate elements in subgroup")
    got = classify_kernel(kern, kelems)
    return got[0] if got else None


# -- odd-part lifts ------------------------------------------------------------------


@dataclass(frozen=True)
class TauMap:
    """An index-2 kernel inside H; elements outside it invert the odd part."""

    subgroup: RegularSubgroup
    kernel_codes: frozenset[bytes]


def cyclic_halves(kern: HolKernel, elems: Iterable[KernelElement], mx: int) -> Iterator[tuple[list, frozenset]]:
    """(powers of u, codes of <u>) for the first u in `elems` of each cyclic
    subgroup of order mx; each u is tested by one power walk.  The orders
    in a 2-group are powers of 2, so u has order mx iff u^mx = 1 and
    u^(mx/2) != 1."""
    seen: set[bytes] = set()
    for u in elems:
        if kern.code(u) in seen:
            continue
        pows = kern.power_list(u, mx + 1)
        if pows[mx] != kern.identity or pows[mx // 2] == kern.identity:
            continue
        codes = frozenset(map(kern.code, pows[:mx]))
        seen |= codes
        yield pows, codes


def semidirect_subgroup(h_sub: RegularSubgroup, tau: TauMap, odd: GroupSpec) -> RegularSubgroup:
    """The regular subgroup of Hol(N_s x N_2) built from (H, tau).

    Its elements are (t_a o tau_h, h) for a in N_s, h in H, generated by
    X = (t_1, u) and Y = (inversion, w): u of order |H|/2 generates the
    kernel, and w outside it has w u w^-1 = u^-1 with w^2 = u^(|H|/4)
    (quaternion) or 1 (dihedral).  With s = 1 the input subgroup is
    returned unchanged.
    """
    if odd.order % 2 == 0:
        raise InvalidInputError("odd part must have odd order")
    if odd.order == 1:
        return h_sub
    if not odd.is_cyclic():
        raise InvalidInputError("odd part of a quaternion/dihedral brace is cyclic")
    if h_sub.group.odd_order != 1:
        raise InvalidInputError("base subgroup must live over a 2-group")
    kern2 = get_kernel(h_sub.group)
    mx = h_sub.group.order // 2
    inside = [e for e, c in zip(h_sub.elements, h_sub.key) if c in tau.kernel_codes]
    pows, codes = next(cyclic_halves(kern2, inside, mx), (None, None))
    if codes != tau.kernel_codes:
        raise InvalidInputError("pair (H, tau) does not produce the expected target")
    u, u_inv = pows[1], pows[mx - 1]
    y2 = pows[mx // 2] if h_sub.kind.family == QUATERNION else kern2.identity
    compose = kern2.compose
    for w, c in zip(h_sub.elements, h_sub.key):
        if c not in codes and compose(w, w) == y2 and compose(compose(w, u), kernel_invert(kern2, w)) == u_inv:
            break
    else:
        raise InvalidInputError("pair (H, tau) does not produce the expected target")
    group = make_group(tuple(odd.factors) + tuple(h_sub.group.factors))
    kern = get_kernel(group)
    # component layout: 2-part space first, odd spaces after (primes ascending)
    odd_spaces = kern.spaces[1:]
    x = u + tuple(sp.add_rows[1] for sp in odd_spaces)
    y = w + tuple(bytes(sp.neg_idx) for sp in odd_spaces)
    kind = TargetKind(h_sub.kind.family, h_sub.kind.n, odd.order)
    return _generated(kern, kind, x, y)[0]


def tau_set(h_sub: RegularSubgroup) -> list[TauMap]:
    """The valid TauMaps for H: one per cyclic subgroup of order |H|/2,
    sorted by codes.  Q_{2^n} (n >= 4) and D_{2^n} (n >= 3) have one; Q_8
    and C_2 x C_2 have three."""
    if h_sub.group.order % 2 or h_sub.group.odd_order != 1:
        raise InvalidInputError("H must be a regular subgroup over a 2-group")
    kern = get_kernel(h_sub.group)
    halves = cyclic_halves(kern, h_sub.elements, h_sub.group.order // 2)
    return [TauMap(h_sub, codes) for _, codes in sorted(halves, key=lambda half: sorted(half[1]))]
