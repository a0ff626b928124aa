"""Closed-form solvers for the two infinite 2-power families.

For N = C_{2^n} (n >= 4) and N = C_2 x C_{2^{n-1}} (n >= 5) the generator
relations collapse to small congruence systems; solving them directly gives
the regular subgroups without scanning Hol(N).  Counts are produced by
materializing the solved subgroups and expanding Aut(N)-orbits, so the
returned (r, c) are computed rather than quoted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import GroupSpec, make_group
from .endo import aut_generators, make_endo
from .errors import HolobraceError, InternalConsistencyError, InvalidInputError
from .holomorph import HolElement, hol_compose, hol_identity, hol_invert
from .presentations import DIHEDRAL, QUATERNION, TargetKind

CYCLIC = "cyclic"
RANK2 = "rank2"


class StructuredRangeError(HolobraceError, ValueError):
    """n below the family's closed-form range; use the generic engine."""


@dataclass(frozen=True)
class StructuredGeneratorPair:
    """Solved (X, Y) parameters for one family member."""

    family: str
    n: int
    kind: TargetKind
    params: tuple[int, ...]  # cyclic: (alpha, v, beta, w); rank2: (a,b,r,s,alpha,beta,v1,v2,w1,w2)

    def group(self) -> GroupSpec:
        if self.family == CYCLIC:
            return make_group([1 << self.n])
        return make_group([2, 1 << (self.n - 1)])

    def instantiate(self) -> tuple[HolElement, HolElement]:
        grp = self.group()
        if self.family == CYCLIC:
            alpha, v, beta, w = self.params
            exps = (self.n,)
            x = HolElement(grp, (make_endo(2, exps, [[alpha]]),), (v,))
            y = HolElement(grp, (make_endo(2, exps, [[beta]]),), (w,))
            return x, y
        a, b, r, s, alpha, beta, v1, v2, w1, w2 = self.params
        exps = (1, self.n - 1)
        half = 1 << (self.n - 2)
        x = HolElement(grp, (make_endo(2, exps, [[1, a], [half * b, alpha]]),), (v1, v2))
        y = HolElement(grp, (make_endo(2, exps, [[1, r], [half * s, beta]]),), (w1, w2))
        return x, y


@dataclass(frozen=True)
class StructuredCensus:
    family: str
    n: int
    kind: TargetKind
    pairs: tuple[StructuredGeneratorPair, ...]  # one solved pair per fundamental subgroup
    r: int
    c: int
    class_sizes: tuple[int, ...]
    subgroup_encodings: tuple[frozenset, ...]  # every subgroup, as element encodings

    def group(self) -> GroupSpec:
        return self.pairs[0].group()


# -- small algebraic subgroup helpers ------------------------------------------


def _closure(gens: list[HolElement], bound: int) -> dict:
    """Encoding -> element map of the generated subgroup; error above bound."""
    ident = hol_identity(gens[0].group)
    seen = {ident.encode(): ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = hol_compose(cur, g)
            enc = nxt.encode()
            if enc not in seen:
                if len(seen) >= bound:
                    raise InvalidInputError("closure exceeded expected subgroup order")
                seen[enc] = nxt
                frontier.append(nxt)
    return seen


def subgroup_elements(pair: StructuredGeneratorPair) -> frozenset:
    """Encodings of the subgroup generated by the instantiated pair."""
    return frozenset(_closure(list(pair.instantiate()), 2 * pair.kind.order))


def instantiated_is_regular(pair: StructuredGeneratorPair) -> bool:
    elems = subgroup_elements(pair)
    return (
        len(elems) == pair.kind.order
        and len({enc[1] for enc in elems}) == pair.kind.order
    )


# -- C_{2^n} --------------------------------------------------------------------


def canonical_cyclic_pair(n: int, family: str) -> StructuredGeneratorPair:
    """The explicit generators: X = (1, 2), Y = (-1 + 2^{n-1}, 1) or (-1, 1)."""
    mod = 1 << n
    kind = TargetKind(family, n, 1)
    beta = (mod - 1 + (mod >> 1)) % mod if family == QUATERNION else mod - 1
    return StructuredGeneratorPair(CYCLIC, n, kind, (1, 2, beta, 1))


def solve_cyclic(n: int, family: str) -> StructuredCensus:
    """Regular quaternion/dihedral subgroups of Hol(C_{2^n}), n >= 4.

    Enumerates every solution of the reduced congruence system over
    (alpha, v, beta, w) mod 2^n, keeps the regular ones, and groups them into
    subgroups.
    """
    if n < 4:
        raise StructuredRangeError(f"cyclic solver needs n >= 4, got {n}")
    if family not in (QUATERNION, DIHEDRAL):
        raise InvalidInputError(f"unknown family {family!r}")
    mod = 1 << n
    half = mod >> 1
    quarter = mod >> 3  # 2^{n-3}, the coefficient of the order-exactness test
    kind = TargetKind(family, n, 1)
    roots = [a for a in range(1, mod, 2) if a * a % mod == 1]
    rhs = half if family == QUATERNION else 0
    x_sols = [
        (alpha, v)
        for alpha in roots
        for v in range(mod)
        if ((1 + alpha) * v) % 8 == 4
        and (quarter * (1 + alpha) * v) % mod != 0
    ]
    y_sols = [
        (beta, w) for beta in roots for w in range(mod) if ((1 + beta) * w) % mod == rhs
    ]
    subgroups: dict[frozenset, StructuredGeneratorPair] = {}
    for alpha, v in x_sols:
        x_enc = ((alpha,), (v,))
        for beta, w in y_sols:
            if ((alpha + beta) * v) % mod != ((alpha - 1) * w) % mod:
                continue
            y_enc = ((beta,), (w,))
            if any(x_enc in key and y_enc in key for key in subgroups):
                continue
            pair = StructuredGeneratorPair(CYCLIC, n, kind, (alpha, v, beta, w))
            elems = subgroup_elements(pair)
            if len(elems) != kind.order:
                continue
            if len({e[1] for e in elems}) != kind.order:
                continue  # not regular
            subgroups.setdefault(elems, pair)
    pairs = tuple(subgroups[k] for k in sorted(subgroups, key=sorted))
    r = len(pairs)
    if r != 1:
        raise InternalConsistencyError(f"cyclic family n={n} produced {r} subgroups")
    return StructuredCensus(CYCLIC, n, kind, pairs, r, r, (1,) * r, tuple(subgroups))


# -- C_2 x C_{2^{n-1}} -------------------------------------------------------------


def _rank2_aut_conjugators(n: int) -> list[tuple[HolElement, HolElement]]:
    """Generators of Aut(C_2 x C_{2^{n-1}}) as holomorph elements, with inverses."""
    grp = make_group([2, 1 << (n - 1)])
    out = []
    for aut in aut_generators(grp):
        g = HolElement(grp, aut, (0, 0))
        out.append((g, hol_invert(g)))
    return out


def solve_rank2(n: int, family: str) -> StructuredCensus:
    """Regular subgroups of Hol(C_2 x C_{2^{n-1}}), n >= 5.

    Solves the normal-form system (v = (0,1), w = (1,0), r = a, s fixed by
    the family) for the eight fundamental subgroups, then expands their
    Aut(N)-orbits to recover the full census.
    """
    if n < 5:
        raise StructuredRangeError(f"rank-2 solver needs n >= 5, got {n}")
    if family not in (QUATERNION, DIHEDRAL):
        raise InvalidInputError(f"unknown family {family!r}")
    mod = 1 << (n - 1)
    half = 1 << (n - 2)
    kind = TargetKind(family, n, 1)
    s = 1 if family == QUATERNION else 0
    fundamentals: list[StructuredGeneratorPair] = []
    for a in (0, 1):
        for b in (0, 1):
            target = (1 + half * a * s) % mod
            for alpha in range(1, mod, 4):
                if alpha * alpha % mod != target:
                    continue
                beta = (half * b * (1 + a) - pow(alpha, -1, mod)) % mod
                fundamentals.append(
                    StructuredGeneratorPair(RANK2, n, kind, (a, b, a, s, alpha, beta, 0, 1, 1, 0))
                )
    if len(fundamentals) != 8:
        raise InternalConsistencyError(f"expected 8 fundamental solutions, got {len(fundamentals)}")
    subs: dict[frozenset, tuple] = {}
    for pair in fundamentals:
        x, y = pair.instantiate()
        members = _closure([x, y], 2 * kind.order)
        if len(members) != kind.order or len({e[1] for e in members}) != kind.order:
            raise InternalConsistencyError(f"fundamental pair {pair.params} is not regular")
        subs[frozenset(members)] = (tuple(members.values()), pair)
    if len(subs) != 8:
        raise InternalConsistencyError("fundamental subgroups are not distinct")
    conjugators = _rank2_aut_conjugators(n)
    orbits: list[set[frozenset]] = []
    seen: set[frozenset] = set()
    for key in sorted(subs, key=sorted):
        if key in seen:
            continue
        elems = subs[key][0]
        orbit = {key}
        frontier = [elems]
        while frontier:
            cur = frontier.pop()
            for g, ginv in conjugators:
                nxt = tuple(hol_compose(hol_compose(g, e), ginv) for e in cur)
                nkey = frozenset(e.encode() for e in nxt)
                if nkey not in orbit:
                    orbit.add(nkey)
                    frontier.append(nxt)
        orbits.append(orbit)
        seen |= orbit
    pairs = tuple(subs[k][1] for k in sorted(subs, key=sorted))
    sizes = tuple(sorted(len(o) for o in orbits))
    all_sets = tuple(sorted(seen, key=sorted))
    return StructuredCensus(RANK2, n, kind, pairs, len(seen), len(orbits), sizes, all_sets)


def solve_family(group: GroupSpec, family: str) -> StructuredCensus:
    """Dispatch to the matching family solver, or StructuredRangeError."""
    n = group.two_adic
    if group.odd_order != 1:
        raise InvalidInputError(f"{group} is not a 2-group")
    if group == make_group([1 << n]):
        return solve_cyclic(n, family)
    if n >= 2 and group == make_group([2, 1 << (n - 1)]):
        return solve_rank2(n, family)
    raise StructuredRangeError(f"{group} is not one of the structured families")


def _element_from_encoding(group: GroupSpec, enc) -> HolElement:
    flat, trans = enc
    p = group.primes[0]
    exps = group.exponents(p)
    r = len(exps)
    rows = [list(flat[i * r : (i + 1) * r]) for i in range(r)]
    return HolElement(group, (make_endo(p, exps, rows),), trans)


def census_kernel_keys(census: StructuredCensus) -> frozenset:
    """Subgroup canonical keys in the generic engine's representation."""
    from .holomorph import to_kernel
    from .kernel import get_kernel

    grp = census.group()
    kern = get_kernel(grp)
    keys = set()
    for enc_set in census.subgroup_encodings:
        keys.add(
            tuple(
                sorted(kern.code(to_kernel(_element_from_encoding(grp, e))) for e in enc_set)
            )
        )
    return frozenset(keys)
