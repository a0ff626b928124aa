"""Search for regular quaternion/dihedral subgroups of Hol(N).

The engine scans candidate generators X of order exactly 2^{n-1} s whose
translation orbit is faithful, as the pool streams them one Sylow component
at a time (`kernel.Pool.candidates`), then builds each admissible partner Y
directly from the relations: Y is determined on all of N by the target point
t = Y(0) together with Y X Y^{-1} = X^{-1} and the kind's Y^2 relation, so
only affine-ness has to be checked.  Two search spaces are supported: all of
Hol(N), or the Sylow-restricted subset (2-part automorphisms unipotent upper
triangular) followed by Aut(N)-orbit expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional

from . import config
from .abelian import GroupSpec, reach
from .endo import aut_order
from .errors import CapacityError, InternalConsistencyError, InvalidInputError
from .holomorph import HolElement, exponent_bound, from_kernel, to_kernel
from .kernel import HolKernel, KernelElement, Pool, get_kernel
from .presentations import QUATERNION, TargetKind, _classify_kernel

SubgroupKey = tuple[bytes, ...]


@dataclass(frozen=True)
class RegularSubgroup:
    """A regular subgroup of Hol(N), canonically keyed by its element codes."""

    group: GroupSpec
    kind: TargetKind
    key: SubgroupKey
    elements: tuple[KernelElement, ...]
    witness: Optional[tuple[KernelElement, KernelElement]] = None

    def hol_elements(self) -> tuple[HolElement, ...]:
        return tuple(from_kernel(self.group, e) for e in self.elements)

    def witnesses(self) -> tuple[HolElement, HolElement]:
        pair = self.witness
        if pair is None:
            got = _classify_kernel(get_kernel(self.group), frozenset(self.elements), False)
            if got is None:
                raise InternalConsistencyError("stored subgroup lost its target shape")
            pair = got[1]
        return from_kernel(self.group, pair[0]), from_kernel(self.group, pair[1])


@dataclass(frozen=True)
class ConjugacyClass:
    representative: RegularSubgroup
    orbit_size: int
    stabilizer_order: int


def _subgroup(kern: HolKernel, kind: TargetKind, elements, witness=None) -> RegularSubgroup:
    ordered = tuple(sorted(elements, key=kern.code))
    key = tuple(kern.code(e) for e in ordered)
    return RegularSubgroup(kern.group, kind, key, ordered, witness)


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


def _build_y(kern: HolKernel, orb0: list[int], orbt: list[int], quat: bool, half: int):
    mx = len(orb0)
    img = [0] * kern.n
    for i in range(mx):
        img[orb0[i]] = orbt[-i % mx]
        img[orbt[i]] = orb0[(half - i) % mx] if quat else orb0[-i % mx]
    return kern.affine_from_images(img)


def _seed_search(kern: HolKernel, kind: TargetKind, pool: Pool):
    """All regular `kind` subgroups generated inside `pool` (X there, Y free)."""
    if kern.group.order != kind.order:
        raise InvalidInputError(f"|N| = {kern.group.order} but target has order {kind.order}")
    if kind.s == 1 and kind.x_order > exponent_bound(kern.group, 2):
        return {}  # order-bound prune: Hol(N) has no element of order 2^{n-1}
    mx = kind.x_order
    half = (1 << (kind.n - 2)) * kind.s
    quat = kind.family == QUATERNION
    n = kern.n
    seen_x: set[bytes] = set()
    found: dict[SubgroupKey, tuple] = {}
    for x in pool.candidates(mx):
        if kern.code(x) in seen_x:
            continue
        pows = kern.power_list(x, mx)
        for k in range(1, mx):
            if gcd(k, mx) == 1:
                seen_x.add(kern.code(pows[k]))
        orb0 = [kern.trans_index(p) for p in pows]
        orb0_set = set(orb0)
        if len(orb0_set) != mx or kern.compose(x, pows[-1]) != kern.identity:
            continue
        handled = set(orb0_set)
        img = kern.images(x)
        for t in range(n):
            if t in handled:
                continue
            orbt = [t]
            cur = t
            for _ in range(mx - 1):
                cur = img[cur]
                orbt.append(cur)
            handled.update(orbt)
            if len(set(orbt)) != mx:
                continue
            y = _build_y(kern, orb0, orbt, quat, half)
            if y is None:
                continue
            elems = pows + [kern.compose(p, y) for p in pows]
            key = tuple(sorted(kern.code(e) for e in elems))
            if key not in found:
                found[key] = (tuple(elems), x, y)
    return found


def _expand_orbits(kern: HolKernel, seeds: dict):
    """Aut(N)-orbit closure of the seed subgroups, by conjugating with the
    generators of Aut(N); brace classes are exactly these orbits.

    Returns (all_subgroups: dict key -> elements, classes: list of
    (rep_key, orbit_size, stabilizer_order)) with classes in the order of
    their least seed key.
    """
    total = aut_order(kern.group)
    conjs = [kern.conjugator(g) for g in kern.aut_generator_tuples()]

    def conjugate(els: tuple, conj) -> tuple:  # orbit nodes: elements sorted by code
        return tuple(sorted(map(conj, els), key=kern.code))

    visited: dict[SubgroupKey, tuple] = {}
    classes = []
    for seed_key in sorted(seeds):
        if seed_key in visited:
            continue
        start = tuple(sorted(seeds[seed_key][0], key=kern.code))
        orbit = {tuple(map(kern.code, els)): els for els in reach(start, conjs, conjugate, total)}
        stab, rem = divmod(total, len(orbit))
        if rem:
            raise InternalConsistencyError("orbit size does not divide |Aut(N)|")
        rep_key = min(orbit)
        classes.append((rep_key, len(orbit), stab))
        visited.update(orbit)
    return visited, classes


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


@dataclass(frozen=True)
class SearchResult:
    group: GroupSpec
    kind: TargetKind
    subgroups: tuple[RegularSubgroup, ...]
    classes: tuple[ConjugacyClass, ...]
    method: str

    @property
    def r(self) -> int:
        return len(self.subgroups)

    @property
    def c(self) -> int:
        return len(self.classes)

    @property
    def keys(self) -> frozenset:
        return frozenset(s.key for s in self.subgroups)


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
    kern = get_kernel(group)
    seeds = _seed_search(kern, kind, _pool_for(kern, method))
    found, raw_classes = _expand_orbits(kern, seeds)
    if method == "full" and len(found) != len(seeds):
        raise InternalConsistencyError("the full scan missed conjugates of what it found")
    subgroups = tuple(
        _subgroup(kern, kind, found[k], seeds[k][1:] if k in seeds else None) for k in sorted(found)
    )
    by_key = {s.key: s for s in subgroups}
    classes = tuple(ConjugacyClass(by_key[rk], size, stab) for rk, size, stab in raw_classes)
    return SearchResult(group, kind, subgroups, classes, method)


def find_regular(group: GroupSpec, kind: TargetKind, method: str = "auto") -> tuple[RegularSubgroup, ...]:
    """The complete, duplicate-free list of regular `kind` subgroups of Hol(N)."""
    return search_regular(group, kind, method).subgroups


def find_regular_sylow(group: GroupSpec, kind: TargetKind) -> SearchResult:
    """Sylow-restricted search plus orbit expansion; complete by conjugacy."""
    return search_regular(group, kind, "sylow")


def classify(subgroups: Iterable[RegularSubgroup]) -> tuple[ConjugacyClass, ...]:
    """Partition a complete list of subgroups into Aut(N)-conjugacy orbits."""
    subgroups = list(subgroups)
    if not subgroups:
        return ()
    group = subgroups[0].group
    if any(s.group != group for s in subgroups):
        raise InvalidInputError("subgroups over different N")
    by_key = {s.key: s for s in subgroups}
    found, raw_classes = _expand_orbits(get_kernel(group), {k: (s.elements,) for k, s in by_key.items()})
    if len(found) != len(by_key):
        raise InvalidInputError("input list is not closed under conjugation")
    return tuple(ConjugacyClass(by_key[rk], size, stab) for rk, size, stab in raw_classes)
