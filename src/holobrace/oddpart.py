"""Odd-part reduction: build order-2^n*s regular subgroups from 2-power ones.

A regular quaternion/dihedral subgroup G of Hol(N_s x N_2) decomposes as a
pair (H, tau): H a regular subgroup of Hol(N_2) and tau a homomorphism from
(N_2, o_H) onto {1, inversion} <= Aut(N_s), determined by an index-2 kernel.
The subgroup is G = {(a, tau_b, h_b) : a in N_s, b in N_2}; counts transfer
from the 2-part except for the Q_{8s}/D_{4s} families, where each H carries
three kernels and the class counts come from the s = 3 base case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .abelian import GroupSpec, make_group, sylow_decompose
from .errors import InvalidInputError
from .kernel import KernelElement, get_kernel
from .presentations import DIHEDRAL, QUATERNION, TargetKind, _classify_kernel
from .regular import RegularSubgroup, _subgroup, search_regular


@dataclass(frozen=True)
class TauMap:
    """An index-2 kernel inside H; elements outside it invert the odd part."""

    subgroup: RegularSubgroup
    kernel_codes: frozenset[bytes]


def _index2_subgroups(sub: RegularSubgroup) -> list[frozenset[bytes]]:
    """All index-2 subgroups of H, via the quotient by <commutators, squares>.

    Every index-2 subgroup contains Phi = <[H,H], H^2>; the candidates are
    preimages of the index-2 subgroups of the elementary quotient H/Phi.
    """
    kern = get_kernel(sub.group)
    elems = list(sub.elements)
    codes = {kern.code(e): e for e in elems}
    inv = {c: kern.invert(e) for c, e in codes.items()}
    # generate Phi
    gens = set()
    for a in elems:
        gens.add(kern.code(kern.compose(a, a)))
        for b in elems:
            comm = kern.compose(kern.compose(a, b), kern.compose(inv[kern.code(a)], inv[kern.code(b)]))
            gens.add(kern.code(comm))
    phi = {kern.code(e) for e in kern.closure([codes[c] for c in gens], len(elems))}
    # cosets of Phi
    cosets: list[frozenset[bytes]] = []
    assigned: set[bytes] = set()
    for e in sorted(elems, key=kern.code):
        c = kern.code(e)
        if c in assigned:
            continue
        coset = frozenset(kern.code(kern.compose(e, codes[pc])) for pc in phi)
        cosets.append(coset)
        assigned |= coset
    k = len(cosets)
    if k & (k - 1):
        raise InvalidInputError("quotient by Phi is not a 2-group")
    # index-2 subgroups of the quotient = kernels of the nonzero characters
    ident_coset = next(cs for cs in cosets if kern.code(kern.identity) in cs)
    reps = {cs: codes[min(cs)] for cs in cosets}
    out = []
    for target in _index2_of_elementary(cosets, ident_coset, reps, kern):
        out.append(target)
    return out


def _index2_of_elementary(cosets, ident_coset, reps, kern) -> list[frozenset[bytes]]:
    """Index-2 unions of cosets closed under the quotient multiplication.

    The quotient is elementary abelian (k = 2 or 4 here), so candidates are
    the identity coset plus k/2 - 1 others, kept when closed.
    """
    k = len(cosets)
    if k == 1:
        return []
    lookup = {}
    for cs in cosets:
        for c in cs:
            lookup[c] = cs
    out = []
    others = [cs for cs in cosets if cs is not ident_coset]
    for picks in combinations(others, k // 2 - 1):
        members = {ident_coset, *picks}
        closed = all(
            lookup[kern.code(kern.compose(reps[a], reps[b]))] in members
            for a in members
            for b in members
        )
        if closed:
            out.append(frozenset().union(*members))
    return out


def _semidirect_elements(h_sub: RegularSubgroup, kernel_codes: frozenset[bytes], odd: GroupSpec):
    """Kernel elements of the lifted subgroup over N = N_odd x N_2."""
    group = make_group(tuple(odd.factors) + tuple(h_sub.group.factors))
    kern = get_kernel(group)
    kern2 = get_kernel(h_sub.group)
    # component layout: 2-part space first, odd spaces after (primes ascending)
    odd_spaces = kern.spaces[1:]
    odd_ids = [sp.identity for sp in odd_spaces]
    odd_invs = []
    for sp in odd_spaces:
        neg_perm = bytes(sp.neg_idx)
        odd_invs.append(neg_perm)
    elems: list[KernelElement] = []
    odd_translations = list(product(*(range(sp.m) for sp in odd_spaces)))
    for h in h_sub.elements:
        h2 = h[0]  # H lives over the pure 2-group: single component
        inverting = kernel_codes is not None and kern2.code(h) not in kernel_codes
        for odd_tr in odd_translations:
            comps = [h2]
            for k, sp in enumerate(odd_spaces):
                aut = odd_invs[k] if inverting else odd_ids[k]
                comps.append(sp.hol_perm(aut, odd_tr[k]))
            elems.append(tuple(comps))
    return group, kern, elems


def semidirect_subgroup(h_sub: RegularSubgroup, tau: TauMap, odd: GroupSpec) -> RegularSubgroup:
    """The regular subgroup of Hol(N_s x N_2) built from (H, tau).

    Elements are (a, tau_b, h_b) for a in N_s, b in N_2.  With s = 1 the
    input subgroup is returned unchanged.
    """
    if odd.order % 2 == 0:
        raise InvalidInputError("odd part must have odd order")
    if odd.order == 1:
        return h_sub
    if not odd.is_cyclic():
        raise InvalidInputError("odd part of a quaternion/dihedral brace is cyclic")
    if h_sub.group.odd_order != 1:
        raise InvalidInputError("base subgroup must live over a 2-group")
    group, kern, elems = _semidirect_elements(h_sub, tau.kernel_codes, odd)
    kind = TargetKind(h_sub.kind.family, h_sub.kind.n, odd.order)
    got = _classify_kernel(kern, frozenset(elems), check_closed=False)
    if got is None or got[0] != kind:
        raise InvalidInputError("pair (H, tau) does not produce the expected target")
    return _subgroup(kern, kind, elems, got[1])


def tau_set(h_sub: RegularSubgroup) -> list[TauMap]:
    """The valid TauMaps for H: index-2 kernels whose semidirect product with
    an odd cyclic part is again quaternion/dihedral (probed at s = 3)."""
    if h_sub.group.order % 2 or h_sub.group.odd_order != 1:
        raise InvalidInputError("H must be a regular subgroup over a 2-group")
    probe = make_group([3])
    out = []
    for kernel_codes in _index2_subgroups(h_sub):
        tau = TauMap(h_sub, kernel_codes)
        try:
            semidirect_subgroup(h_sub, tau, probe)
        except InvalidInputError:
            continue
        out.append(tau)
    return out


# -- count transfer ------------------------------------------------------------------


def is_exceptional(kind: TargetKind) -> bool:
    """Q_{8s} and D_{4s} carry three kernels per H instead of one."""
    return (kind.family == QUATERNION and kind.n == 3) or (
        kind.family == DIHEDRAL and kind.n == 2
    )


def reduce_counts(group: GroupSpec, kind: TargetKind):
    """(r, c, class_sizes) for odd s >= 3, transferred from the 2-part.

    Generic kinds copy (r, c) from (N_2, J_2); the exceptional kinds triple r
    and take c from the directly-enumerated s = 3 base case.
    """
    odd, two, _ = sylow_decompose(group)
    if odd.order < 3:
        raise InvalidInputError("reduction needs an odd part s >= 3")
    if kind.order != group.order or kind.s != odd.order:
        raise InvalidInputError(f"target {kind.label()} does not match |{group}|")
    if not odd.is_cyclic():
        return 0, 0, ()
    from .counts import two_power_census  # deferred; counts imports this module

    base = two_power_census(two, kind.family)
    if not is_exceptional(kind):
        return base.r, base.c, tuple(orbit for orbit, _ in base.classes)
    if base.r == 0:
        return 0, 0, ()
    # direct enumeration over C_3 x N_2, the s = 3 base of the exceptional cases
    exceptional = search_regular(make_group((3,) + two.factors), TargetKind(kind.family, kind.n, 3))
    return 3 * base.r, exceptional.c, tuple(orbit for orbit, _ in exceptional.class_sizes)
