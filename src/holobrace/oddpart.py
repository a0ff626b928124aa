"""Odd-part reduction: build order-2^n*s regular subgroups from 2-power ones.

A regular quaternion/dihedral subgroup G of Hol(N_s x N_2) decomposes as a
pair (H, tau): H a regular subgroup of Hol(N_2) and tau a homomorphism from
H onto {1, inversion} <= Aut(N_s).  The cyclic subgroup of index 2 of G is
C_s x ker(tau), so ker(tau) is a cyclic subgroup of H of order |H|/2, and G
is generated by X = (t_1, u) and Y = (inversion, w) for a generator u of
the kernel and a partner w of u in H (README, "Odd-part lifts").  Counts
transfer from the 2-part except for the Q_{8s}/D_{4s} families, where each
H carries three kernels and the class counts come from the s = 3 base case.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .abelian import GroupSpec, make_group, sylow_decompose
from .errors import InternalConsistencyError, InvalidInputError
from .kernel import HolKernel, KernelElement, get_kernel
from .presentations import DIHEDRAL, QUATERNION, TargetKind
from .regular import RegularSubgroup, _generated, search_regular


@dataclass(frozen=True)
class TauMap:
    """An index-2 kernel inside H; elements outside it invert the odd part."""

    subgroup: RegularSubgroup
    kernel_codes: frozenset[bytes]


def _cyclic_halves(kern: HolKernel, elems: Iterable[KernelElement], mx: int) -> Iterator[tuple[list, frozenset]]:
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
    pows, codes = next(_cyclic_halves(kern2, inside, mx), (None, None))
    if codes != tau.kernel_codes:
        raise InvalidInputError("pair (H, tau) does not produce the expected target")
    u, u_inv = pows[1], pows[mx - 1]
    y2 = pows[mx // 2] if h_sub.kind.family == QUATERNION else kern2.identity
    compose = kern2.compose
    for w, c in zip(h_sub.elements, h_sub.key):
        if c not in codes and compose(w, w) == y2 and compose(compose(w, u), kern2.invert(w)) == u_inv:
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
    halves = _cyclic_halves(kern, h_sub.elements, h_sub.group.order // 2)
    return [TauMap(h_sub, codes) for _, codes in sorted(halves, key=lambda half: sorted(half[1]))]


# -- count transfer ------------------------------------------------------------------


def is_exceptional(kind: TargetKind) -> bool:
    """Q_{8s} and D_{4s} carry three kernels per H instead of one."""
    return (kind.family == QUATERNION and kind.n == 3) or (
        kind.family == DIHEDRAL and kind.n == 2
    )


def reduce_counts(group: GroupSpec, kind: TargetKind):
    """(r, c, class_sizes) for odd s >= 3, transferred from the 2-part.

    Generic kinds copy (r, c) from (N_2, J_2); the exceptional kinds triple r
    and take c from the directly-enumerated s = 3 base case, which must find
    those 3·r(N_2) subgroups itself.
    """
    odd, two = sylow_decompose(group)
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
    if exceptional.r != 3 * base.r:
        raise InternalConsistencyError(
            f"the s = 3 base search finds r = {exceptional.r}, the 2-part gives 3·r(N_2) = {3 * base.r}"
        )
    return 3 * base.r, exceptional.c, tuple(orbit for orbit, _ in exceptional.class_sizes)
