"""Closed-form solvers for the two infinite 2-power families.

For N = C_{2^n} (n >= 4) and N = C_2 x C_{2^{n-1}} (n >= 5) the generator
relations collapse to small congruence systems in a normal form, whose
solutions meet every Aut(N)-orbit of regular subgroups without scanning
Hol(N).  A subgroup is never closed: it is kept as one witness pair (X, Y),
whose Aut(N)-orbit is walked by membership tests in the cyclic <X>, each
read off X^d = τ_w (d the order of X's linear part) with one modular
solve, so (r, c) and the class sizes are computed rather than quoted.

The loops run on plain-integer affine maps in the form of `HolElement.encode()`
(row i reduced mod the i-th factor) and build no `HolElement`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import config
from .abelian import GroupSpec, make_group, reach
from .endo import aut_generators, aut_invert, aut_order
from .errors import CapacityError, InternalConsistencyError, InvalidInputError
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


def _mark_orbit(marks: bytearray, x, start: tuple[int, ...], steps: int, mods: tuple[int, ...]) -> bool:
    """Mark the points X^i(start), i < steps; False if one was marked already.
    C_m is walked as C_1 x C_m; the point (p0, p1) of C_2 x C_m is p0 * m + p1."""
    if len(mods) == 1:
        x, start, mods = ((0, 0, 0, x[0][0]), (0, x[1][0])), (0, start[0]), (1, mods[0])
    ((a0, a1, a2, a3), (v0, v1)), (lo, hi), (p0, p1) = x, mods, start
    for _ in range(steps):
        if marks[p0 * hi + p1]:
            return False
        marks[p0 * hi + p1] = 1
        p0, p1 = (a0 * p0 + a1 * p1 + v0) % lo, (a2 * p0 + a3 * p1 + v1) % hi
    return True


def _presents(x, y, k: int, quat: bool, mods: tuple[int, ...]) -> bool:
    """X^(2^k) = 1, Y^2 = X^(2^(k-1)) (Q) or 1 (D) and XYX = Y: then
    <X, Y> = {X^i Y^e} is a quotient of Q or D of order 2^(k+1)."""
    z, ident = x, _identity(mods)
    for _ in range(k - 1):
        z = _compose(z, z, mods)
    return (
        _compose(z, z, mods) == ident
        and _compose(y, y, mods) == (z if quat else ident)
        and _compose(_compose(x, y, mods), x, mods) == y
    )


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


def _classes(found: list, mods: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """(one (X, Y) per subgroup, sorted orbit sizes) for the Aut(N)-orbits of
    the subgroups that the pairs in `found`, one per subgroup, generate.

    a<X, Y>a^-1 = <aXa^-1, aYa^-1>, so an orbit is walked by conjugating
    witnesses with the generators of Aut(N).  A conjugate (x, y) is a known
    <X, Y> iff x and yY lie in <X> (Y^2 does), each tested by `_member`
    through X^d = τ_w, d the order of X's linear part, which a known
    subgroup keeps beside its witness.  Orbits are disjoint, so a conjugate
    is compared with its own orbit only.
    """
    group, zero = make_group(mods), (0,) * len(mods)
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


# -- C_{2^n} --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _solve_cyclic(n: int, family: str) -> tuple:
    """Regular quaternion/dihedral subgroups of Hol(C_{2^n}), n >= 4, once
    `solve_family` has admitted them, memoized on (n, family).

    Searches the normal form only.  Aut(C_{2^n}) is the unit group, and a
    unit u conjugates X = (alpha, v) to (alpha, u v), so every Aut(N)-orbit
    holds a subgroup whose X has v = 2^(2-a), 2^a exactly dividing
    1 + alpha; `_classes` recovers the orbits.  For each such X it tests
    Y = (beta, t), beta^2 = 1, t the least point off the orbit of 0: Q and
    D of order 2^n have one cyclic subgroup of index 2, and one element
    that sends 0 to t.  It walks 4 * 2^{n-1} points: the orbits of 0 and t
    for each of the two normal-form X.
    """
    mod = 1 << n
    mods = (mod,)
    half = mod >> 1
    quarter = mod >> 3  # 2^{n-3}, the coefficient of the order-exactness test
    roots = [a for a in range(1, mod, 2) if a * a % mod == 1]
    # (1 + alpha) v = 4 mod 8 holds for v = 2^(2-a) = 4 / 2^a; no v solves it when a > 2
    normal = {alpha: 4 // ((1 + alpha) & -(1 + alpha)) for alpha in roots if (1 + alpha) % 8}
    xs = [((alpha,), (v,)) for alpha, v in normal.items() if quarter * (1 + alpha) * v % mod]
    found = []
    for x in xs:
        marks = bytearray(mod)
        if not _mark_orbit(marks, x, (0,), half, mods):
            continue
        t = marks.index(0)
        if _mark_orbit(marks, x, (t,), half, mods):
            found += [(x, ((beta,), (t,))) for beta in roots]
    found = [(x, y) for x, y in found if _presents(x, y, n - 1, family == QUATERNION, mods)]
    witnesses, sizes = _classes(found, mods)
    if len(xs) != 2 or len(witnesses) != len(found):
        raise InternalConsistencyError(f"cyclic family n={n}: {len(xs)} X, {len(found)} of {len(witnesses)} found")
    return tuple(found), witnesses, sizes


# -- C_2 x C_{2^{n-1}} -------------------------------------------------------------


@lru_cache(maxsize=None)
def _solve_rank2(n: int, family: str) -> tuple:
    """Regular subgroups of Hol(C_2 x C_{2^{n-1}}), n >= 5, once
    `solve_family` has admitted them, memoized on (n, family).

    Solves the normal-form system (v = (0,1), w = (1,0), r = a, s fixed by
    the family) for the eight fundamental subgroups, then walks their
    Aut(N)-orbits to recover the full census.  It walks 2^n points for
    each fundamental pair.
    """
    mod = 1 << (n - 1)
    half = 1 << (n - 2)
    s = 1 if family == QUATERNION else 0
    fundamentals = []
    for a in (0, 1):
        for b in (0, 1):
            target = (1 + half * a * s) % mod
            for alpha in range(1, mod, 4):
                if alpha * alpha % mod != target:
                    continue
                beta = (half * b * (1 + a) - pow(alpha, -1, mod)) % mod
                fundamentals.append((((1, a, half * b, alpha), (0, 1)), ((1, a, half * s, beta), (1, 0))))
    if len(fundamentals) != 8:
        raise InternalConsistencyError(f"expected 8 fundamental solutions, got {len(fundamentals)}")
    mods = (2, mod)
    for x, y in fundamentals:
        marks = bytearray(1 << n)
        walks = _mark_orbit(marks, x, (0, 0), mod, mods) and _mark_orbit(marks, x, y[1], mod, mods)
        if not (walks and _presents(x, y, n - 1, s == 1, mods)):
            raise InternalConsistencyError(f"fundamental pair {(x, y)} is not regular")
    return tuple(fundamentals), *_classes(fundamentals, mods)


# (solver, its name, least n, points walked / 2^(n-1)) for each of `family_types(n)`;
# a solver answers (the solved (X, Y) pairs, one (X, Y) per subgroup, orbit
# by orbit, the sorted orbit sizes), each (X, Y) two plain-integer encodings
_SOLVERS = ((_solve_cyclic, "cyclic", 4, 4), (_solve_rank2, "rank-2", 5, 16))


def solve_family(group: GroupSpec, family: str) -> SearchResult:
    """The census of a family pair from its closed-form solver.  Before the
    memo answers, refuses N outside the families or n below the solver's
    range (StructuredRangeError), an unknown family, and more points to walk
    than `config.aut_candidate_cap()` allows (CapacityError)."""
    n = group.two_adic
    if group.odd_order != 1:
        raise InvalidInputError(f"{group} is not a 2-group")
    types = family_types(n) if n >= 2 else ()
    if group not in types:
        raise StructuredRangeError(f"{group} is not one of the structured families")
    solver, name, least, points = _SOLVERS[types.index(group)]
    if n < least:
        raise StructuredRangeError(f"{name} solver needs n >= {least}, got {n}")
    kind = TargetKind(family, n, 1)  # an unknown family is an input error
    needed, cap = points << (n - 1), config.aut_candidate_cap()
    if needed > cap:
        raise CapacityError(f"{name} family solver at n={n}: too many points to walk", needed=needed, cap=cap)
    _, witnesses, sizes = solver(n, family)
    return SearchResult.from_orbits(group, kind, len(witnesses), sizes, "structured")

