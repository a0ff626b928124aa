"""Search for regular quaternion/dihedral subgroups of Hol(N).

The engine scans candidate generators X of order exactly 2^{n-1} s whose
translation orbit is faithful, as the pool streams them one Sylow component
at a time (`kernel.Pool.candidates`), with one 2-part linear part per cyclic
subgroup of the automorphism block, enough to meet every cyclic <X>; the
scan is memoized per pool and order, so the quaternion and the dihedral
search of N share it.  Each kind then builds each admissible partner Y
directly from its relations: Y is determined on all of N by the target
point t = Y(0) together with Y X Y^{-1} = X^{-1} and the kind's Y^2
relation, so only affine-ness has to be checked.  Two search spaces are
supported: all of Hol(N), or the Sylow-restricted subset (2-part
automorphisms unipotent upper triangular), whose hits seed the
Aut(N)-classes.  The Sylow path sizes each class by its stabilizer and
expands the orbits only when `list_regular` lists the subgroups.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter

from . import config
from .abelian import GroupSpec, reach
from .endo import aut_order
from .errors import CapacityError, InternalConsistencyError, InvalidInputError
from .holomorph import HolElement, exponent_bound, from_kernel, to_kernel
from .kernel import HolKernel, KernelElement, Pool, PrimeSpace, get_kernel
from .presentations import QUATERNION, TargetKind

SubgroupKey = tuple[bytes, ...]


@dataclass(frozen=True)
class RegularSubgroup:
    """A regular subgroup of Hol(N), stored as the sorted codes of its
    elements (`key`) and a generating pair (X, Y) with the relations of
    `kind` (`witness`).  Only `_subgroup` builds one."""

    group: GroupSpec
    kind: TargetKind
    key: SubgroupKey
    witness: tuple[KernelElement, KernelElement]

    @property
    def elements(self) -> tuple[KernelElement, ...]:
        """The elements in key order, each code cut into its component permutations."""
        ends = list(accumulate(get_kernel(self.group).sizes, initial=0))
        spans = list(zip(ends, ends[1:]))
        return tuple(tuple(c[a:b] for a, b in spans) for c in self.key)

    def hol_elements(self) -> tuple[HolElement, ...]:
        return tuple(from_kernel(self.group, e) for e in self.elements)

    def witnesses(self) -> tuple[HolElement, HolElement]:
        x, y = self.witness
        return from_kernel(self.group, x), from_kernel(self.group, y)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: RegularSubgroup
    orbit_size: int
    stabilizer_order: int


def _subgroup(kern: HolKernel, kind: TargetKind, elements, witness) -> RegularSubgroup:
    """The subgroup of `elements`, keyed by their codes sorted once."""
    return RegularSubgroup(kern.group, kind, tuple(sorted(map(kern.code, elements))), witness)


# -- spec-level helpers ----------------------------------------------------------


def is_regular(elems: Iterable[HolElement]) -> bool:
    """True iff the translation parts exhaust N (the orbit of 0 is all of N)."""
    elems = list(elems)
    if not elems:
        raise InvalidInputError("empty element set")
    group = elems[0].group
    if len(elems) != group.order:
        raise InvalidInputError(f"need |S| = |N| = {group.order}, got {len(elems)}")
    return len({e.trans for e in elems}) == group.order


def generate_closure(gens: Iterable[HolElement], cap: int) -> set[HolElement]:
    """Subgroup generated by `gens`; CapacityError once the closure passes cap."""
    gens = list(gens)
    if not gens:
        raise InvalidInputError("need at least one generator")
    group = gens[0].group
    closure = get_kernel(group).closure([to_kernel(g) for g in gens], cap)
    return {from_kernel(group, e) for e in closure}


# -- the search ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _y_getter(mx: int, half: int, quat: bool) -> itemgetter:
    """Positions in orb0 + orbt of the images under Y of orb0 + orbt, for
    orb0 = [X^i(0)] and orbt = [X^i Y(0)]: Y X^i(0) = X^-i Y(0), and
    Y X^i Y(0) = X^(half-i)(0) (quaternion) or X^-i(0) (dihedral)."""
    back = [((half - i) if quat else -i) % mx for i in range(mx)]
    return itemgetter(*[mx + -i % mx for i in range(mx)], *back)


def _build_y(kern: HolKernel, sources: tuple[bytes, ...], quat: bool, half: int) -> KernelElement | None:
    """The Y fixed on all of N by its relations, or None unless it is affine.

    sources[p] holds the component indices of orb0 + orbt, which is all of
    N, so per component the points must map consistently, the map must be
    a bijection, and its linear part must pass `PrimeSpace.is_linear`."""
    to = _y_getter(len(sources[0]) // 2, half, quat)
    perms = []
    for sp, src in zip(kern.spaces, sources):
        dst = bytes(to(src))
        y = bytes(itemgetter(*map(src.index, range(sp.m)))(dst))
        if sp.compose(y, src) != dst or len(set(y)) != sp.m:
            return None
        if not sp.is_linear(sp.compose(sp.add_rows[sp.neg_idx[y[0]]], y)):
            return None
        perms.append(y)
    return tuple(perms)


@lru_cache(maxsize=None)
def _units(mx: int) -> tuple[int, ...]:
    """The units k mod mx, 1 first."""
    return tuple(k for k in range(1, mx) if gcd(k, mx) == 1)


def _unit_codes(kern: HolKernel, pows: list[KernelElement], mx: int) -> tuple[bytes, ...]:
    """The codes of the generators X^k, k a unit mod mx, of <X>, from pows = [X^0, X^1, ...]."""
    return tuple(map(kern.code, map(pows.__getitem__, _units(mx))))


@lru_cache(maxsize=None)
def _x_scan(pool: Pool, mx: int) -> tuple[tuple[KernelElement, tuple[bytes, ...]], ...]:
    """The kind-free half of a search, which a quaternion and a dihedral
    search of N share (X has order |N|/2 in both): (X, sources) for each X
    of order mx in `pool`, one per cyclic <X>, in candidate order, whose
    orbit through 0 has mx points and whose other mx points are one
    <X>-orbit; sources[p] holds the component indices of the orbit of 0,
    then of the orbit of t, the least of those other points, which
    `_build_y` maps.  The candidates meet each cyclic <X> through the
    generators whose 2-part linear part leads its <A>; the unit powers X^k
    with A^k = A among them are skipped here.
    Each X's cycles are walked once, and its unit powers and both orbits
    are read off them.  The stream yields only X of order mx with mx points
    through 0, so any other is an internal error."""
    group, _ = pool.name
    kern = get_kernel(group)
    seen_x: set[bytes] = set()
    frames = []
    for x in pool.candidates(mx):
        if kern.code(x) in seen_x:
            continue
        cycles = kern.cycles(x, mx)
        pows = kern.powers(cycles, mx)
        seen_x.update(_unit_codes(kern, pows, mx))
        at_0 = kern.orbit(cycles, 0, mx)
        orb0 = set(kern.combined(at_0))
        if len(orb0) != mx or kern.compose(x, pows[-1]) != kern.identity:
            # the order walk never ends on a map that is no permutation
            perm = all(bytes(sorted(a)) == sp.identity for sp, a in zip(kern.spaces, x))
            what = f"of order {kern.order(x)}" if perm else "that is no permutation,"
            raise InternalConsistencyError(
                f"pool candidate {what} with {len(orb0)} points through 0, both must be {mx}"
            )
        # the other mx points must be one <X>-orbit, or no Y swaps the two
        t = next(i for i in range(kern.n) if i not in orb0)
        at_t = kern.orbit(cycles, t, mx)
        if lcm(*map(len, map(set, at_t))) == mx:  # lcm of the cycle lengths of the t_p
            frames.append((x, tuple(map(bytes.__add__, at_0, at_t))))
    return tuple(frames)


# a subgroup and the codes of the generators of its <X>, which index it in `_expand_orbits`
Seed = tuple[RegularSubgroup, tuple[bytes, ...]]


def _generated(kern: HolKernel, kind: TargetKind, x: KernelElement, y: KernelElement) -> Seed:
    """The subgroup of the X^i and X^i Y, i < mx, with witness (X, Y), and
    the codes of the generators X^k, k a unit, of its <X>."""
    mx = kind.x_order
    pows = kern.power_list(x, mx)
    sub = _subgroup(kern, kind, pows + kern.power_list(x, mx, y), (x, y))
    return sub, _unit_codes(kern, pows, mx)


def _seed_search(kern: HolKernel, kind: TargetKind, pool: Pool) -> dict[SubgroupKey, Seed]:
    """All regular `kind` subgroups generated inside `pool` (X there, Y
    free), by key, each with the codes of the generators of its <X>."""
    if kern.group.order != kind.order:
        raise InvalidInputError(f"|N| = {kern.group.order} but target has order {kind.order}")
    if kind.s == 1 and kind.x_order > exponent_bound(kern.group, 2):
        return {}  # order-bound prune: Hol(N) has no element of order 2^{n-1}
    half = (1 << (kind.n - 2)) * kind.s
    quat = kind.family == QUATERNION
    found: dict[SubgroupKey, Seed] = {}
    for x, sources in _x_scan(pool, kind.x_order):
        y = _build_y(kern, sources, quat, half)
        if y is not None:
            seed = _generated(kern, kind, x, y)
            found.setdefault(seed[0].key, seed)
    return found


def _expand_orbits(kern: HolKernel, seeds: dict[SubgroupKey, Seed]):
    """Aut(N)-orbit closure of the seed subgroups, by conjugating with the
    generators of Aut(N); brace classes are exactly these orbits.

    a<x, y>a^-1 = <axa^-1, aya^-1>, and a kind has at most one subgroup per
    cyclic <x> of order |N|/2, since y is fixed by y(0) and the relations.
    So known subgroups are indexed by the generators of their <x>, and a
    step conjugates x only: the known subgroup of the same kind indexed
    under axa^-1 is the image.  On a miss (a new subgroup, or one indexed
    by another <x>, as in Q8) y is conjugated too and the image is built
    from the pair (README, "Class sizes and orbit expansion").

    Returns (all subgroups by key, classes as (rep_key, orbit_size,
    stabilizer_order)) with classes in the order of their least seed key.
    """
    total = aut_order(kern.group)
    conjs = [kern.conjugator(g) for g in kern.aut_generator_tuples()]
    code = kern.code
    known: dict[SubgroupKey, RegularSubgroup] = {}
    index: dict[bytes, list[RegularSubgroup]] = {}

    def add(sub: RegularSubgroup, x_codes: tuple[bytes, ...]) -> None:
        known[sub.key] = sub
        for c in x_codes:
            index.setdefault(c, []).append(sub)

    def image(key: SubgroupKey, conj) -> SubgroupKey:
        sub = known[key]
        x = conj(sub.witness[0])
        for cand in index.get(code(x), ()):
            if cand.kind == sub.kind:
                return cand.key
        moved, x_codes = _generated(kern, sub.kind, x, conj(sub.witness[1]))
        if moved.key not in known:
            add(moved, x_codes)
        return moved.key

    for seed in seeds.values():
        add(*seed)
    visited: set[SubgroupKey] = set()
    classes = []
    for seed_key in sorted(seeds):
        if seed_key in visited:
            continue
        orbit = reach(seed_key, conjs, image, total)
        stab, rem = divmod(total, len(orbit))
        if rem:
            raise InternalConsistencyError("orbit size does not divide |Aut(N)|")
        classes.append((min(orbit), len(orbit), stab))
        visited.update(orbit)
    return known, classes


def _pool_for(kern: HolKernel, method: str):
    if method == "full":
        return kern.full_pool()
    if method == "sylow":
        return kern.sylow_pool()
    raise InvalidInputError(f"unknown search method {method!r}")


def fits_full_scan(group: GroupSpec) -> bool:
    """True when Hol(N) fits the byte kernel and the full-scan cap."""
    try:
        return get_kernel(group).hol_order() <= config.full_hol_cap()
    except CapacityError:
        return False


def scan_refusal(group: GroupSpec, method: str) -> CapacityError | None:
    """The CapacityError that stops a `method` search of N before it scans
    (the byte kernel's limit or a budget of its pool), or None."""
    try:
        _pool_for(get_kernel(group), method)
    except CapacityError as exc:
        return exc
    return None


# -- class sizes from stabilizers -------------------------------------------------


@lru_cache(maxsize=None)
def _unit_getters(mx: int) -> tuple[itemgetter, ...]:
    """For each unit k mod mx, 1 first, the getter of positions k*i mod mx."""
    return tuple(itemgetter(*(k * i % mx for i in range(mx))) for k in _units(mx))


def _frames(kern: HolKernel, sub: RegularSubgroup, quat: bool) -> list[tuple[list[int], list[list[bytes]]]]:
    """The generating pairs of `sub` with the relations of its kind, as frames.

    A frame holds A = [u^i(0)] and B = [u^i w(0)], i < mx, for an element u
    of order mx and one partner w; the pairs of the frame are (u, u^j w),
    j < mx, with the points Q_j = A + B[j:] + B[:j].  The u are the X^k, k a
    unit, with partner Y; in Q_8 and C_2×C_2, whose elements off <X> have
    order mx too, also the X^j Y, with partner X (X (X^j Y) X^-1 =
    (X^j Y)^-1, and X^2 = (X^j Y)^2).  The first frame is that of (X, Y)
    itself.  A frame is stored as the additive orders of A and, per
    component, the component indices of Q_j as bytes.  B_p walks a cycle of
    u_p, so Q_j depends on j modulo its length, the number of distinct
    points in B_p, and only the Q_j for j below it are stored.
    """
    x, y = sub.witness
    mx = kern.n // 2
    cycles = kern.cycles(x, mx)
    orb0, orbt = kern.orbit(cycles, 0, mx), kern.orbit(cycles, kern.trans_index(y), mx)
    pairs = [([bytes(get(a)) for a in orb0], [bytes(get(b)) for b in orbt]) for get in _unit_getters(mx)]
    if mx == (4 if quat else 2):
        for u in kern.power_list(x, mx, y):
            u_cycles = kern.cycles(u, mx)
            pairs.append((kern.orbit(u_cycles, 0, mx), kern.orbit(u_cycles, kern.trans_index(x), mx)))
    frames = []
    for a, b in pairs:
        rotations = [[a_p + b_p[j:] + b_p[:j] for j in range(len(set(b_p)))] for a_p, b_p in zip(a, b)]
        frames.append(([kern.point_orders[i] for i in kern.combined(a)], rotations))
    return frames


def _linear_test(sp: PrimeSpace, points: bytes) -> Callable[[bytes], bool]:
    """A memoized test of q: is points[i] -> q[i] a linear map of N_p?"""
    pick = itemgetter(*map(points.index, range(sp.m)))
    verdicts: dict[bytes, bool] = {}

    def test(q: bytes) -> bool:
        ok = verdicts.get(q)
        if ok is None:
            phi = bytes(pick(q))
            ok = verdicts[q] = sp.compose(phi, points) == q and sp.is_linear(phi)
        return ok

    return test


def _additive_pairs(kern: HolKernel, source, frames) -> Iterator[tuple[int, int]]:
    """(frame, j) for each pair (u, u^j w) of `frames` whose induced map
    φ: X^i Y^e(0) -> u^i w^e(0), (X, Y) the pair of the `source` frame, is
    additive.

    Such a φ is the product of linear maps φ_p of the components: the point
    of component index P_p[i] must go to Q_p[i] under a map of N_p alone,
    and that map must be linear.  φ preserves additive orders, so a frame
    whose A has other orders than the source's is skipped whole.  Each
    component is tested once per stored Q_j, memoized across frames, and
    narrows the j still open.
    """
    orders0, rotations0 = source
    tests = [_linear_test(sp, rots[0]) for sp, rots in zip(kern.spaces, rotations0)]
    for f, (orders, rotations) in enumerate(frames):
        if orders != orders0:
            continue
        open_j = range(len(orders))
        for test, rots in zip(tests, rotations):
            ok = [test(q) for q in rots]
            open_j = [j for j in open_j if ok[j % len(ok)]]
            if not open_j:
                break
        for j in open_j:
            yield f, j


def _class_sizes(kern: HolKernel, kind: TargetKind, seeds: dict[SubgroupKey, Seed]):
    """(orbit size, stabilizer order) of each Aut(N)-class of the seeds, in
    the order of the classes' least seed keys, without listing an orbit.

    S is regular, so α ∈ Aut(N) normalizes S iff α is the map φ induced by
    a generating pair (u, w) of S with the relations: α maps s(0) to
    (α s α^-1)(0), and conversely φ s φ^-1 = θ(s) for the automorphism θ
    of S sending (X, Y) to (u, w).  So Stab(S) is the set of additive φ,
    and the orbit has |Aut(N)|/|Stab(S)| subgroups.  In the same way a seed
    joins an earlier class, of equal stabilizer order, when some pair of
    that class's first seed induces an additive φ from its own points.
    """
    total = aut_order(kern.group)
    quat = kind.family == QUATERNION
    classes: list[tuple[int, list]] = []  # (stabilizer order, frames of the first seed)
    for key in sorted(seeds):
        frames = _frames(kern, seeds[key][0], quat)
        stab = sum(1 for _ in _additive_pairs(kern, frames[0], frames))
        if total % stab:
            raise InternalConsistencyError(f"stabilizer order {stab} does not divide |Aut(N)| = {total}")
        if not any(
            order == stab and next(_additive_pairs(kern, frames[0], first), None)
            for order, first in classes
        ):
            classes.append((stab, frames))
    return tuple((total // stab, stab) for stab, _ in classes)


@dataclass(frozen=True)
class SearchResult:
    """A census of the regular `kind` subgroups of Hol(N): r and the (orbit
    size, stabilizer order) of each class, in class order.

    It keeps no subgroup: `list_regular` lists the subgroups and the class
    representatives by rerunning the scan."""

    group: GroupSpec
    kind: TargetKind
    r: int
    class_sizes: tuple[tuple[int, int], ...]
    method: str

    @property
    def c(self) -> int:
        return len(self.class_sizes)


def search_regular(group: GroupSpec, kind: TargetKind, method: str = "auto") -> SearchResult:
    """Complete census of regular `kind` subgroups with conjugacy classes.

    The pool's budgets are checked on every call, before the memoized search
    answers, so a cap lowered later in the process still fires.
    """
    kern = get_kernel(group)
    if method == "auto":
        method = "full" if fits_full_scan(group) else "sylow"
    _pool_for(kern, method)
    return _search_cached(group, kind, method)


@lru_cache(maxsize=None)
def _search_cached(group: GroupSpec, kind: TargetKind, method: str) -> SearchResult:
    """The full scan already holds every subgroup, so its class sizes come
    from the orbit expansion; the Sylow path sizes its classes by
    stabilizers.  Neither keeps a subgroup."""
    kern = get_kernel(group)
    seeds = _seed_search(kern, kind, _pool_for(kern, method))
    if method == "sylow":
        sizes = _class_sizes(kern, kind, seeds)
        return SearchResult(group, kind, sum(size for size, _ in sizes), sizes, method)
    found, raw_classes = _expand_orbits(kern, seeds)
    if len(found) != len(seeds):
        raise InternalConsistencyError("the full scan missed conjugates of what it found")
    return SearchResult(group, kind, len(found), tuple((size, stab) for _, size, stab in raw_classes), method)


def _conjugacy_classes(found: dict[SubgroupKey, RegularSubgroup], raw_classes) -> tuple[ConjugacyClass, ...]:
    """The classes of `_expand_orbits`, each represented by its least key."""
    return tuple(ConjugacyClass(found[rk], size, stab) for rk, size, stab in raw_classes)


def list_regular(
    group: GroupSpec, kind: TargetKind, method: str = "auto"
) -> tuple[tuple[RegularSubgroup, ...], tuple[ConjugacyClass, ...]]:
    """The regular `kind` subgroups of Hol(N) sorted by key, and their
    Aut(N)-classes in class order, each represented by the least key of its
    orbit.

    Reruns the scan and the orbit expansion of `search_regular`'s method,
    and checks them against its r and class sizes; nothing is kept."""
    res = search_regular(group, kind, method)
    kern = get_kernel(group)
    found, raw_classes = _expand_orbits(kern, _seed_search(kern, kind, _pool_for(kern, res.method)))
    classes = _conjugacy_classes(found, raw_classes)
    listed = tuple((c.orbit_size, c.stabilizer_order) for c in classes)
    if listed != res.class_sizes or len(found) != res.r:
        raise InternalConsistencyError(
            f"the orbit listing gives r = {len(found)} and classes {listed}, "
            f"the search r = {res.r} and classes {res.class_sizes}"
        )
    return tuple(found[k] for k in sorted(found)), classes


def classify(subgroups: Iterable[RegularSubgroup]) -> tuple[ConjugacyClass, ...]:
    """Partition a complete list of subgroups into Aut(N)-conjugacy orbits."""
    subgroups = list(subgroups)
    if not subgroups:
        return ()
    group = subgroups[0].group
    if any(s.group != group for s in subgroups):
        raise InvalidInputError("subgroups over different N")
    kern, mx = get_kernel(group), group.order // 2
    seeds: dict[SubgroupKey, Seed] = {}
    for s in subgroups:  # the expansion builds on <x, y> = S, x of order |N|/2
        x, y = s.witness
        pows = kern.power_list(x, mx + 1)  # x^0 .. x^mx, so x of order mx ends on the identity
        ident = pows[0]
        codes = set(s.key)
        if pows[mx] != ident or ident in pows[1:mx] or y in pows or not codes.issuperset(map(kern.code, pows + [y])):
            raise InvalidInputError("a witness does not generate its subgroup")
        seeds[s.key] = (s, _unit_codes(kern, pows, mx))
    found, raw_classes = _expand_orbits(kern, seeds)
    if len(found) != len(seeds):
        raise InvalidInputError("input list is not closed under conjugation")
    return _conjugacy_classes(found, raw_classes)
