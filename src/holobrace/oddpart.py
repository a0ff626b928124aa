"""Odd-part reduction: the counts of order 2^n*s from those of order 2^n.

A regular quaternion/dihedral subgroup G of Hol(N_s x N_2) decomposes as a
pair (H, tau): H a regular subgroup of Hol(N_2) and tau a homomorphism from
H onto {1, inversion} <= Aut(N_s).  The cyclic subgroup of index 2 of G is
C_s x ker(tau), so ker(tau) is a cyclic subgroup of H of order |H|/2, and G
is generated by X = (t_1, u) and Y = (inversion, w) for a generator u of
the kernel and a partner w of u in H (README, "Odd-part lifts"; the tests
build the lifts).  Counts transfer from the 2-part except for the
Q_{8s}/D_{4s} families, where each H carries three kernels and the class
counts come from the s = 3 base case.
"""

from __future__ import annotations

from .abelian import GroupSpec, make_group, sylow_decompose
from .errors import InternalConsistencyError, InvalidInputError
from .presentations import TargetKind
from .regular import SearchResult, search_regular


def reduce_counts(group: GroupSpec, kind: TargetKind) -> SearchResult:
    """The census for odd s >= 3, transferred from the 2-part.

    Generic kinds copy r and the class orbits from (N_2, J_2); the
    exceptional kinds triple r and take the classes from the
    directly-enumerated s = 3 base case, which must find those 3·r(N_2)
    subgroups itself.
    """
    odd, two = sylow_decompose(group)
    if odd.order < 3:
        raise InvalidInputError("reduction needs an odd part s >= 3")
    if kind.order != group.order or kind.s != odd.order:
        raise InvalidInputError(f"target {kind.label()} does not match |{group}|")
    classes = ()
    if odd.is_cyclic():
        from .counts import two_power_census  # deferred; counts imports this module

        base = two_power_census(two, kind.family)
        if not kind.exceptional:
            classes = base.class_sizes
        elif base.r:
            # direct enumeration over C_3 x N_2, the s = 3 base of the exceptional cases
            exceptional = search_regular(make_group((3,) + two.factors), TargetKind(kind.family, kind.n, 3))
            if exceptional.r != 3 * base.r:
                raise InternalConsistencyError(
                    f"the s = 3 base search finds r = {exceptional.r}, the 2-part gives 3·r(N_2) = {3 * base.r}"
                )
            classes = exceptional.class_sizes
    return SearchResult.from_orbits(group, kind, (orbit for orbit, _ in classes), "reduction")
