"""Closed-form solvers for the two infinite 2-power families.

For N = C_{2^n} (n >= 4) and N = C_2 x C_{2^{n-1}} (n >= 5) the generator
relations collapse to small congruence systems; solving them directly gives
the regular subgroups without scanning Hol(N).  Counts are produced by
materializing the solved subgroups and expanding Aut(N)-orbits, so the
returned (r, c) are computed rather than quoted.

The loops run on plain-integer affine maps in the form of `HolElement.encode()`
(row i reduced mod the i-th factor); only `instantiate` builds `HolElement`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import config
from .abelian import GroupSpec, make_group, reach
from .endo import aut_generators, aut_order, make_endo
from .errors import CapacityError, InternalConsistencyError, InvalidInputError
from .holomorph import HolElement, to_kernel
from .kernel import get_kernel
from .presentations import DIHEDRAL, QUATERNION, TargetKind

CYCLIC = "cyclic"
RANK2 = "rank2"


class StructuredRangeError(InvalidInputError):
    """N outside the closed-form families (or n below their range); use the
    generic engine."""


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

    def affine(self) -> tuple[tuple, tuple]:
        """(X, Y) as plain-integer encodings, equal to `instantiate()`'s."""
        if self.family == CYCLIC:
            alpha, v, beta, w = self.params
            return ((alpha,), (v,)), ((beta,), (w,))
        a, b, r, s, alpha, beta, v1, v2, w1, w2 = self.params
        half = 1 << (self.n - 2)
        return ((1, a, half * b, alpha), (v1, v2)), ((1, r, half * s, beta), (w1, w2))

    def instantiate(self) -> tuple[HolElement, HolElement]:
        """(X, Y) as validated holomorph elements."""
        return tuple(_element_from_encoding(self.group(), e) for e in self.affine())


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


# -- plain-integer affine maps --------------------------------------------------


def _compose(x, y, mods: tuple[int, ...]):
    """(A, v)(B, w) = (AB, A(w) + v) on encodings of rank 1 or 2."""
    if len(mods) == 1:
        ((a,), (v,)), ((b,), (w,)), (m,) = x, y, mods
        return ((a * b % m,), ((a * w + v) % m,))
    ((a0, a1, a2, a3), (v0, v1)), ((b0, b1, b2, b3), (w0, w1)), (lo, hi) = x, y, mods
    matrix = (
        (a0 * b0 + a1 * b2) % lo,
        (a0 * b1 + a1 * b3) % lo,
        (a2 * b0 + a3 * b2) % hi,
        (a2 * b1 + a3 * b3) % hi,
    )
    return matrix, ((a0 * w0 + a1 * w1 + v0) % lo, (a2 * w0 + a3 * w1 + v1) % hi)


def _closure(gens, mods: tuple[int, ...], bound: int) -> frozenset:
    """Encodings of the subgroup generated by `gens`; CapacityError above bound."""
    ident = ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))
    return reach(ident, gens, lambda e, g: _compose(e, g, mods), bound)


def _is_regular(elems: frozenset, order: int) -> bool:
    return len(elems) == order and len({e[1] for e in elems}) == order


def subgroup_elements(pair: StructuredGeneratorPair) -> frozenset:
    """Encodings of the subgroup generated by the solved pair."""
    return _closure(pair.affine(), pair.group().factors, 2 * pair.kind.order)


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
    subgroups.  The |X| * |Y| candidate pairs are bounded by
    `config.aut_candidate_cap()`.
    """
    if n < 4:
        raise StructuredRangeError(f"cyclic solver needs n >= 4, got {n}")
    if family not in (QUATERNION, DIHEDRAL):
        raise InvalidInputError(f"unknown family {family!r}")
    needed, cap = _cyclic_pairs(n, family), config.aut_candidate_cap()
    if needed > cap:
        raise CapacityError(
            f"cyclic family solver at n={n}: too many (X, Y) pairs", needed=needed, cap=cap
        )
    return _solve_cyclic(n, family)


def _cyclic_pairs(n: int, family: str) -> int:
    """|X| * |Y|: |X| = 2^{n-1}; |Y| = 2^{n-1} + 4, or 3 * 2^{n-1} + 4 if dihedral."""
    half = 1 << (n - 1)
    return half * (half + 4 if family == QUATERNION else 3 * half + 4)


@lru_cache(maxsize=None)
def _solve_cyclic(n: int, family: str) -> StructuredCensus:
    """solve_cyclic once its budget has passed, memoized on (n, family)."""
    mod = 1 << n
    mods = (mod,)
    half = mod >> 1
    needed = _cyclic_pairs(n, family)
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
    if len(x_sols) * len(y_sols) != needed:
        raise InternalConsistencyError(f"cyclic family n={n}: pair count differs from {needed}")
    subgroups: dict[frozenset, StructuredGeneratorPair] = {}
    for alpha, v in x_sols:
        x_enc = ((alpha,), (v,))
        # Translations of the powers of X.  A Y sharing one with some X^i
        # fails the order check (Y = X^i) or the regularity check.
        x_trans, t = {0}, v
        while t:
            x_trans.add(t)
            t = (alpha * t + v) % mod
        for beta, w in y_sols:
            if w in x_trans or ((alpha + beta) * v) % mod != ((alpha - 1) * w) % mod:
                continue
            y_enc = ((beta,), (w,))
            if any(x_enc in key and y_enc in key for key in subgroups):
                continue
            elems = _closure((x_enc, y_enc), mods, 2 * kind.order)
            if not _is_regular(elems, kind.order):
                continue
            pair = StructuredGeneratorPair(CYCLIC, n, kind, (alpha, v, beta, w))
            subgroups.setdefault(elems, pair)
    pairs = tuple(subgroups[k] for k in sorted(subgroups, key=sorted))
    r = len(pairs)
    if r != 1:
        raise InternalConsistencyError(f"cyclic family n={n} produced {r} subgroups")
    return StructuredCensus(CYCLIC, n, kind, pairs, r, r, (1,) * r, tuple(subgroups))


# -- C_2 x C_{2^{n-1}} -------------------------------------------------------------


def solve_rank2(n: int, family: str) -> StructuredCensus:
    """Regular subgroups of Hol(C_2 x C_{2^{n-1}}), n >= 5.

    Solves the normal-form system (v = (0,1), w = (1,0), r = a, s fixed by
    the family) for the eight fundamental subgroups, then expands their
    Aut(N)-orbits to recover the full census.  The 16 * 2^n encodings of the
    subgroups it holds are bounded by `config.aut_candidate_cap()`.
    """
    if n < 5:
        raise StructuredRangeError(f"rank-2 solver needs n >= 5, got {n}")
    if family not in (QUATERNION, DIHEDRAL):
        raise InvalidInputError(f"unknown family {family!r}")
    needed, cap = 1 << (n + 4), config.aut_candidate_cap()  # 16 subgroups of 2^n encodings
    if needed > cap:
        raise CapacityError(
            f"rank-2 family solver at n={n}: too many subgroup encodings", needed=needed, cap=cap
        )
    return _solve_rank2(n, family)


@lru_cache(maxsize=None)
def _solve_rank2(n: int, family: str) -> StructuredCensus:
    """solve_rank2 once its budget has passed, memoized on (n, family)."""
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
    mods = (2, mod)
    subs: dict[frozenset, StructuredGeneratorPair] = {}
    for pair in fundamentals:
        members = _closure(pair.affine(), mods, 2 * kind.order)
        if not _is_regular(members, kind.order):
            raise InternalConsistencyError(f"fundamental pair {pair.params} is not regular")
        subs[members] = pair
    if len(subs) != 8:
        raise InternalConsistencyError("fundamental subgroups are not distinct")
    conjugators = []  # (A, A^{-1}) per generator of Aut(N), A^{-1} = det(A)^{-1} adj(A)
    for (aut,) in aut_generators(make_group(mods)):
        m00, m01, m10, m11 = aut.flat()
        u = pow(m00 * m11 - m01 * m10, -1, mod)
        inverse = (m11 * u % 2, -m01 * u % 2, -m10 * u % mod, m00 * u % mod)
        conjugators.append(((aut.flat(), (0, 0)), (inverse, (0, 0))))
    gens = {key: pair.affine() for key, pair in subs.items()}  # generators of each known subgroup

    def conjugate(sub, g):
        # g<X, Y>g^{-1} = <gXg^{-1}, gYg^{-1}>, so a known subgroup holding both is it
        x, y = (_compose(_compose(g[0], e, mods), g[1], mods) for e in gens[sub])
        known = next((k for k in gens if x in k and y in k), None)
        if known is None:
            known = _closure((x, y), mods, 2 * kind.order)
            gens[known] = (x, y)
        return known

    orbits: list[frozenset] = []
    seen: set[frozenset] = set()
    for key in sorted(subs, key=sorted):
        if key not in seen:
            orbits.append(reach(key, conjugators, conjugate, aut_order(make_group(mods))))
            seen |= orbits[-1]
    pairs = tuple(subs[k] for k in sorted(subs, key=sorted))
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
