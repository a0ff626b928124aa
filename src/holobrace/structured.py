"""Closed-form solvers for the two infinite 2-power families.

For N = C_{2^n} (n >= 4) and N = C_2 x C_{2^{n-1}} (n >= 5) the generator
relations collapse to small congruence systems in a normal form, whose
solutions, the fundamental pairs, are written down in closed form: one for
C_{2^n}, eight for C_2 x C_{2^{n-1}}.  They meet every Aut(N)-orbit of
regular subgroups without scanning Hol(N).  One memoized routine checks
each pair regular in closed form, then walks the orbits.  A subgroup is
never closed: it is kept as one witness pair (X, Y), whose Aut(N)-orbit is
walked by membership tests in the cyclic <X>, each read off X^d = τ_w (d
the order of X's linear part) with one modular solve, so (r, c) and the
class sizes are computed rather than quoted.

The loops run on plain-integer affine maps in the form of `HolElement.encode()`
(row i reduced mod the i-th factor) and build no `HolElement`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .abelian import GroupSpec, reach
from .endo import aut_generators, aut_invert, aut_order
from .errors import InternalConsistencyError, InvalidInputError
from .presentations import QUATERNION, TargetKind, family_types
from .regular import SearchResult


class StructuredRangeError(InvalidInputError):
    """N outside the closed-form families (or n below their range); use the
    generic engine."""


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


def _identity(mods: tuple[int, ...]):
    return ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))


def _in_span(u: tuple[int, ...], w: tuple[int, ...], mods: tuple[int, ...]) -> bool:
    """Whether the point u lies in the cyclic subgroup <w> of N: j w = u is
    solved in the last factor, j = j0 mod step, and on C_2 x C_m then
    checked in the first, where j runs over both parities iff step is odd."""
    hi, g = mods[-1], gcd(w[-1], mods[-1])
    if u[-1] % g:
        return False
    if len(mods) == 1:
        return True
    step = hi // g
    if step % 2:
        return u[0] == 0 or w[0] == 1
    return (u[1] // g * pow(w[1] // g, -1, step) * w[0] - u[0]) % 2 == 0


def _translation_power(x, mods: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(d, w) with d the order of X's linear part A and X^d = τ_w."""
    p, d, ident = x, 1, _identity(mods)[0]
    while p[0] != ident:
        p, d = _compose(x, p, mods), d + 1
    return d, p[1]


def _regular(x, y, k: int, quat: bool, mods: tuple[int, ...]) -> bool:
    """Whether <X, Y> is regular on N of order 2^(k+1): the relations bound
    |<X, Y>| by 2^(k+1), z = X^(2^(k-1)) moving 0 makes |<X>0| = 2^k, and
    <X>Y(0), as large, misses <X>0 = {X^r(0) + <w> : r < d}, X^d = τ_w."""
    z, ident = x, _identity(mods)
    for _ in range(k - 1):
        z = _compose(z, z, mods)
    relations = (
        _compose(z, z, mods) == ident
        and _compose(y, y, mods) == (z if quat else ident)
        and _compose(_compose(x, y, mods), x, mods) == y
    )
    if not (relations and any(z[1])):
        return False
    (d, w), p = _translation_power(x, mods), ident
    for _ in range(d):
        if _in_span(tuple((ui - pi) % m for ui, pi, m in zip(y[1], p[1], mods)), w, mods):
            return False
        p = _compose(x, p, mods)
    return True


def _member(g, x, d: int, w: tuple[int, ...], mods: tuple[int, ...]) -> bool:
    """Whether g = (B, u) lies in <X>, X = (A, v) with A of order d and
    X^d = τ_w.  X^(qd + r) = τ_(qw) X^r = (A^r, X^r(0) + qw), so g is in <X>
    iff B = A^r for some r < d, which fixes r, and u - X^r(0) lies in <w>.
    O(d) compositions."""
    (b, u), p = g, _identity(mods)
    for _ in range(d):
        if p[0] == b:
            return _in_span(tuple((ui - pi) % m for ui, pi, m in zip(u, p[1], mods)), w, mods)
        p = _compose(x, p, mods)
    return False


def _classes(found: tuple, group: GroupSpec) -> tuple[tuple, tuple[int, ...]]:
    """(one (X, Y) per subgroup, sorted orbit sizes) for the Aut(N)-orbits of
    the subgroups that the pairs in `found`, one per subgroup, generate.

    a<X, Y>a^-1 = <aXa^-1, aYa^-1>, so an orbit is walked by conjugating
    witnesses with the generators of Aut(N).  A conjugate (x, y) is a known
    <X, Y> iff x and yY lie in <X> (Y^2 does), each tested by `_member`
    through X^d = τ_w, d the order of X's linear part, which a known
    subgroup keeps beside its witness.  Orbits are disjoint, so a conjugate
    is compared with its own orbit only.
    """
    mods, zero = group.factors, (0,) * len(group.factors)
    conjugators = [tuple((a.flat(), zero) for (a,) in (g, aut_invert(g))) for g in aut_generators(group)]
    known, sizes = [], []

    def place(x, y, start: int) -> int:
        for i in range(start, len(known)):
            known_x, known_y, d, w = known[i]
            if _member(x, known_x, d, w, mods) and _member(_compose(y, known_y, mods), known_x, d, w, mods):
                return i
        known.append((x, y, *_translation_power(x, mods)))
        return len(known) - 1

    named: set[int] = set()  # the subgroups that `found` generates
    for x, y in found:
        start = len(known)
        i = place(x, y, 0)
        if i in named:
            raise InternalConsistencyError("two solved pairs generate one subgroup")
        named.add(i)
        if i == start:  # not in an earlier orbit

            def conjugate(sub: int, a, start: int = start) -> int:
                return place(*(_compose(_compose(a[0], e, mods), a[1], mods) for e in known[sub][:2]), start)

            sizes.append(len(reach(start, conjugators, conjugate, aut_order(group))))
    return tuple(w[:2] for w in known), tuple(sorted(sizes))


# -- the fundamental pairs ---------------------------------------------------------


def _cyclic_pairs(n: int, family: str) -> tuple:
    """The one fundamental pair of Hol(C_{2^n}), n >= 4: X = (1, 2) and
    Y = (2^(n-1) - 1, 1) for Q or (-1, 1) for D.  <X> walks the even points
    and Y sends 0 to 1, so <X, Y> is regular; `_classes` finds its orbit.
    """
    mod = 1 << n
    beta = (mod >> 1) - 1 if family == QUATERNION else mod - 1
    return ((((1,), (2,)), ((beta,), (1,))),)


def _rank2_pairs(n: int, family: str) -> tuple:
    """The eight fundamental pairs of Hol(C_2 x C_{2^{n-1}}), n >= 5, from
    the normal-form system: v = (0, 1), w = (1, 0), r = a, s fixed by the
    family, and for each a, b in {0, 1} the two square roots alpha of
    1 + half a s that are 1 mod 4, {1, 1 + half} or, when a s = 1,
    {1 + half/2, 1 + 3 half/2}; each alpha fixes beta.
    """
    mod, half, eighth = 1 << (n - 1), 1 << (n - 2), 1 << (n - 3)
    s = 1 if family == QUATERNION else 0
    pairs = []
    for a in (0, 1):
        for b in (0, 1):
            for alpha in (1 + eighth, 1 + 3 * eighth) if a * s else (1, 1 + half):
                beta = (half * b * (1 + a) - pow(alpha, -1, mod)) % mod
                pairs.append((((1, a, half * b, alpha), (0, 1)), ((1, a, half * s, beta), (1, 0))))
    return tuple(pairs)


# (fundamental pairs, name, least n) for each of `family_types(n)`, so by the rank of N
_FAMILIES = ((_cyclic_pairs, "cyclic", 4), (_rank2_pairs, "rank-2", 5))


@lru_cache(maxsize=64)
def _solved(group: GroupSpec, family: str) -> tuple:
    """(the fundamental pairs, one (X, Y) per subgroup, orbit by orbit, the
    sorted orbit sizes) for a family group, once `solve_family` has admitted
    it, memoized on (N, family); each (X, Y) two plain-integer encodings.

    Each pair must pass `_regular`, in O(n + d) compositions.
    """
    mods, n = group.factors, group.two_adic
    pairs = _FAMILIES[len(mods) - 1][0](n, family)
    for x, y in pairs:
        if not _regular(x, y, n - 1, family == QUATERNION, mods):
            raise InternalConsistencyError(f"fundamental pair {(x, y)} is not regular")
    return pairs, *_classes(pairs, group)


def solve_family(group: GroupSpec, family: str) -> SearchResult:
    """The census of a family pair from its fundamental pairs.  Before the
    memo answers, refuses N outside the families or n below their range
    (StructuredRangeError) and an unknown family."""
    n = group.two_adic
    if group.odd_order != 1:
        raise InvalidInputError(f"{group} is not a 2-group")
    types = family_types(n) if n >= 2 else ()
    if group not in types:
        raise StructuredRangeError(f"{group} is not one of the structured families")
    _, name, least = _FAMILIES[types.index(group)]
    if n < least:
        raise StructuredRangeError(f"{name} solver needs n >= {least}, got {n}")
    kind = TargetKind(family, n, 1)  # an unknown family is an input error
    return SearchResult.from_orbits(group, kind, _solved(group, family)[2], "structured")
