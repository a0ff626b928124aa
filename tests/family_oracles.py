"""Closure-based oracles: subgroup closures in Hol(N), the regularity test,
the solved (X, Y) parameter pairs as validated `HolElement`s, and the family
solvers in `holobrace.structured` redone by closure.  `solved` reads the
fundamental pairs and witnesses from the solvers' private memo, which
`solve_family` reduces to a `SearchResult`.  `cyclic_normal_form_pairs` and
`rank2_alpha_loop_pairs` are the searches that the closed-form fundamental
pairs replaced, and `walk_regular` the walk over the 2^n points of N that
the closed-form regularity test replaced.

The family oracles close every candidate subgroup into a frozenset of
plain-integer encodings (the form of `HolElement.encode()`), filter the
cyclic family's (X, Y) pairs over all solutions of the X and the Y
congruences, and walk Aut(N)-orbits over the closed sets.  They share no
membership test, orbit walk or regularity check with the solvers, and have
no budget: keep n small.  `in_cyclic` is a membership test in a cyclic
2-group <X> by discrete logarithm, the oracle of the solvers' own test.
"""

from dataclasses import dataclass
from math import prod

from holobrace.abelian import GroupSpec, make_group, reach
from holobrace.endo import aut_generators, aut_order, make_endo
from holobrace.holomorph import HolElement
from holobrace.kernel import get_kernel
from holobrace import structured
from holobrace.presentations import QUATERNION, TargetKind

from subgroup_oracles import from_kernel, to_kernel

CYCLIC = "cyclic"
RANK2 = "rank2"


def family_group(family, n):
    """C_{2^n} for the cyclic family, C_2 x C_{2^(n-1)} for the rank-2 one."""
    return make_group([1 << n]) if family == CYCLIC else make_group([2, 1 << (n - 1)])


def element_from_encoding(group: GroupSpec, enc) -> HolElement:
    """The validated holomorph element of a plain-integer encoding."""
    flat, trans = enc
    p = group.primes[0]
    exps = group.exponents(p)
    r = len(exps)
    rows = [list(flat[i * r : (i + 1) * r]) for i in range(r)]
    return HolElement(group, (make_endo(p, exps, rows),), trans)


@dataclass(frozen=True)
class StructuredGeneratorPair:
    """Solved (X, Y) parameters for one family member."""

    family: str
    n: int
    kind: TargetKind
    params: tuple[int, ...]  # cyclic: (alpha, v, beta, w); rank2: (a,b,r,s,alpha,beta,v1,v2,w1,w2)

    def group(self) -> GroupSpec:
        return family_group(self.family, self.n)

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
        return tuple(element_from_encoding(self.group(), e) for e in self.affine())


@dataclass(frozen=True)
class Solved:
    """A family solver's memo entry for (n, target family): the solved (X, Y)
    pairs and one (X, Y) witness per subgroup, orbit by orbit."""

    family: str
    n: int
    kind: TargetKind
    pairs: tuple
    witnesses: tuple


def solved(family, n, target):
    """The family solvers' memo entry for the cyclic or rank-2 group, asked
    directly: no budget."""
    pairs, witnesses, _ = structured._solved(family_group(family, n), target)
    return Solved(family, n, TargetKind(target, n, 1), pairs, witnesses)


def solved_pairs(entry):
    """A `Solved` entry's (X, Y) encodings read back into parameters; each
    pair must encode to the same (X, Y) again."""
    half = 1 << (entry.n - 2)
    pairs = []
    for x, y in entry.pairs:
        if entry.family == CYCLIC:
            params = (*x[0], *x[1], *y[0], *y[1])
        else:
            ((_, a, hb, alpha), v), ((_, r, hs, beta), w) = x, y
            params = (a, hb // half, r, hs // half, alpha, beta, *v, *w)
        pair = StructuredGeneratorPair(entry.family, entry.n, entry.kind, params)
        assert pair.affine() == (x, y), (x, y)
        pairs.append(pair)
    return tuple(pairs)


@dataclass(frozen=True)
class OracleCensus:
    pairs: tuple  # first solved pair per subgroup, in the order of the sorted subgroups
    r: int
    c: int
    class_sizes: tuple
    subgroups: tuple  # every subgroup, as a frozenset of encodings


def compose(x, y, mods):
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


def in_cyclic(g, pows, mods):
    """Whether g lies in <X>, pows = [X^(2^j) for j < k], X of order 2^k, by
    its discrete logarithm bit by bit.  For g in <X>, h = g X^e (e the bits
    found so far) lies in <X^(2^j)>, and h^(2^(k-1-j)) is 1 if bit j of its
    logarithm is 0, or the involution X^(2^(k-1)) if it is 1, which X^(2^j)
    clears; any other value rules g out.  O(k^2) compositions."""
    k = len(pows)
    ident = ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))
    for j in range(k):
        h = g
        for _ in range(k - 1 - j):
            h = compose(h, h, mods)
        if h == pows[-1]:
            g = compose(g, pows[j], mods)
        elif h != ident:
            return False
    return True


def squares(x, mods):
    """[X^(2^j) for j < k], X of order 2^k > 1."""
    ident = ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))
    pows = [x]
    while (sq := compose(pows[-1], pows[-1], mods)) != ident:
        pows.append(sq)
    return pows


def closure(gens, mods, bound):
    """Encodings of the subgroup generated by `gens`; CapacityError above bound."""
    ident = ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))
    return reach(ident, gens, lambda e, g: compose(e, g, mods), bound)


def kernel_closure(kern, gens, bound):
    """Kernel elements of the subgroup generated by `gens`; CapacityError above bound."""
    return reach(kern.identity, gens, kern.compose, bound)


def generate_closure(gens, bound):
    """The subgroup generated by the HolElements `gens`, closed in the kernel."""
    gens = list(gens)
    group = gens[0].group
    closed = kernel_closure(get_kernel(group), list(map(to_kernel, gens)), bound)
    return {from_kernel(group, e) for e in closed}


def is_regular(elems, order):
    """True iff there are `order` encodings with pairwise distinct
    translation parts: the orbit of 0 is all of N."""
    return len(elems) == order and len({e[1] for e in elems}) == order


def canonical_cyclic_pair(n, family):
    """The explicit generators for C_{2^n}: X = (1, 2), Y = (-1 + 2^{n-1}, 1)
    or (-1, 1)."""
    mod = 1 << n
    beta = (mod - 1 + (mod >> 1)) % mod if family == QUATERNION else mod - 1
    return StructuredGeneratorPair(CYCLIC, n, TargetKind(family, n, 1), (1, 2, beta, 1))


def presents(x, y, n, family, mods):
    """X^(2^(n-1)) = 1, Y^2 = X^(2^(n-2)) (Q) or 1 (D) and XYX = Y."""
    ident = ((1,), (0,)) if len(mods) == 1 else ((1, 0, 0, 1), (0, 0))
    z = x
    for _ in range(n - 2):
        z = compose(z, z, mods)
    y_squared = z if family == QUATERNION else ident
    return (
        compose(z, z, mods) == ident
        and compose(y, y, mods) == y_squared
        and compose(compose(x, y, mods), x, mods) == y
    )


def mark_orbit(marks, x, start, steps, mods):
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


def walk_regular(x, y, n, family, mods):
    """The regularity test that `structured._regular` replaced: (X, Y)
    presents Q or D of order 2^n, and X walks the 2^n points of N as the
    orbits of 0 and of Y(0), 2^(n-1) points each."""
    marks, half = bytearray(prod(mods)), 1 << (n - 1)
    return (
        mark_orbit(marks, x, (0,) * len(mods), half, mods)
        and mark_orbit(marks, x, y[1], half, mods)
        and presents(x, y, n, family, mods)
    )


def cyclic_normal_form_pairs(n, family):
    """The cyclic family's solved pairs by the normal-form search: for each
    X = (alpha, 2^(2-a)), 2^a exactly dividing 1 + alpha, alpha^2 = 1, whose
    orbits of 0 and of t, the least point off the first, cover C_{2^n} in
    2^(n-1) points each, the pairs (X, (beta, t)) over beta^2 = 1 that
    present Q or D.  (1 + alpha) v = 4 mod 8 makes X of order 2^(n-1), so
    no filter on that order is needed."""
    mod = 1 << n
    roots = [a for a in range(1, mod, 2) if a * a % mod == 1]
    found = []
    for alpha in roots:
        if (1 + alpha) % 8 == 0:  # no v solves (1 + alpha) v = 4 mod 8
            continue
        v = 4 // ((1 + alpha) & -(1 + alpha))

        def orbit(p, alpha=alpha, v=v):  # X^i(p), i < 2^(n-1)
            points = []
            for _ in range(mod >> 1):
                points.append(p)
                p = (alpha * p + v) % mod
            return points

        zeros = orbit(0)
        t = min(set(range(mod)) - set(zeros))
        if len(set(zeros + orbit(t))) == mod:
            found += [(((alpha,), (v,)), ((beta,), (t,))) for beta in roots]
    return tuple((x, y) for x, y in found if presents(x, y, n, family, (mod,)))


def rank2_alpha_loop_pairs(n, family):
    """The rank-2 family's eight fundamental pairs, with alpha found by a
    loop over the residues 1 mod 4 whose square is 1 + half a s."""
    mod, half = 1 << (n - 1), 1 << (n - 2)
    kind = TargetKind(family, n, 1)
    s = 1 if family == QUATERNION else 0
    pairs = []
    for a in (0, 1):
        for b in (0, 1):
            target = (1 + half * a * s) % mod
            for alpha in range(1, mod, 4):
                if alpha * alpha % mod != target:
                    continue
                beta = (half * b * (1 + a) - pow(alpha, -1, mod)) % mod
                pairs.append(StructuredGeneratorPair(RANK2, n, kind, (a, b, a, s, alpha, beta, 0, 1, 1, 0)))
    assert len(pairs) == 8
    return tuple(pairs)


def subgroup_elements(pair):
    """Encodings of the subgroup generated by the solved pair."""
    return closure(pair.affine(), pair.group().factors, 2 * pair.kind.order)


def witness_elements(entry, witness):
    """Encodings of the subgroup a `Solved` witness (X, Y) generates."""
    return closure(witness, family_group(entry.family, entry.n).factors, 2 * entry.kind.order)


def kernel_keys(group, subgroups):
    """Subgroup canonical keys in the generic engine's representation."""
    kern = get_kernel(group)
    return frozenset(
        tuple(sorted(kern.code(to_kernel(element_from_encoding(group, e))) for e in elems))
        for elems in subgroups
    )


def _orbits(subs, mods, order):
    """Aut(N)-orbits of the closed subgroups `subs`: (all subgroups, sorted sizes)."""
    total = aut_order(make_group(mods))
    conjugators = []
    for (aut,) in aut_generators(make_group(mods)):
        a = (aut.flat(), (0,) * len(mods))
        inverse = a
        for _ in range(total - 2):  # a^(|Aut(N)| - 1)
            inverse = compose(inverse, a, mods)
        conjugators.append((a, inverse))
    gens = dict(subs)  # subgroup -> a generating pair

    def conjugate(sub, g):
        x, y = (compose(compose(g[0], e, mods), g[1], mods) for e in gens[sub])
        known = next((k for k in gens if x in k and y in k), None)
        if known is None:
            known = closure((x, y), mods, 2 * order)
            gens[known] = (x, y)
        return known

    orbits, seen = [], set()
    for key in sorted(dict(subs), key=sorted):
        if key not in seen:
            orbits.append(reach(key, conjugators, conjugate, total))
            seen |= orbits[-1]
    return tuple(sorted(seen, key=sorted)), tuple(sorted(len(o) for o in orbits))


def solve_cyclic(n, family):
    """Every (X, Y) pair of the cyclic congruence system, closed and kept if
    regular, skipping a Y that shares a translation with a power of X and a
    pair inside a subgroup found already."""
    mod = 1 << n
    mods = (mod,)
    quarter = mod >> 3
    kind = TargetKind(family, n, 1)
    roots = [a for a in range(1, mod, 2) if a * a % mod == 1]
    rhs = mod >> 1 if family == QUATERNION else 0
    x_sols = [
        (alpha, v)
        for alpha in roots
        for v in range(mod)
        if ((1 + alpha) * v) % 8 == 4 and (quarter * (1 + alpha) * v) % mod != 0
    ]
    y_sols = [(beta, w) for beta in roots for w in range(mod) if ((1 + beta) * w) % mod == rhs]
    found = {}
    for alpha, v in x_sols:
        x_enc = ((alpha,), (v,))
        # translations of the powers of X; a Y sharing one is no generator
        x_trans, t = {0}, v
        while t:
            x_trans.add(t)
            t = (alpha * t + v) % mod
        for beta, w in y_sols:
            if w in x_trans or ((alpha + beta) * v) % mod != ((alpha - 1) * w) % mod:
                continue
            y_enc = ((beta,), (w,))
            if any(x_enc in key and y_enc in key for key in found):
                continue
            elems = closure((x_enc, y_enc), mods, 2 * kind.order)
            if is_regular(elems, kind.order):
                found.setdefault(elems, StructuredGeneratorPair(CYCLIC, n, kind, (alpha, v, beta, w)))
    subgroups, sizes = _orbits([(k, p.affine()) for k, p in found.items()], mods, kind.order)
    assert set(subgroups) == set(found), "Aut(N) moved a subgroup off the solutions"
    pairs = tuple(found[k] for k in sorted(found, key=sorted))
    return OracleCensus(pairs, len(subgroups), len(sizes), sizes, subgroups)


def solve_rank2(n, family):
    """The eight fundamental pairs, closed, and the Aut(N)-orbits of their
    subgroups walked over the closed sets."""
    kind = TargetKind(family, n, 1)
    subs = {}
    for pair in rank2_alpha_loop_pairs(n, family):
        members = subgroup_elements(pair)
        assert is_regular(members, kind.order), pair.params
        subs[members] = pair
    assert len(subs) == 8, "fundamental subgroups are not distinct"
    subgroups, sizes = _orbits([(k, p.affine()) for k, p in subs.items()], (2, 1 << (n - 1)), kind.order)
    pairs = tuple(subs[k] for k in sorted(subs, key=sorted))
    return OracleCensus(pairs, len(subgroups), len(sizes), sizes, subgroups)
