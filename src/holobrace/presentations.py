"""Generalized quaternion and dihedral targets: kinds, Aut orders, admissible types.

Q_{2^n s} = <x, y : x^{2^{n-1} s} = 1, y x y^{-1} = x^{-1}, y^2 = x^{2^{n-2} s}>
D_{2^n s} = <x, y : x^{2^{n-1} s} = 1, y x y^{-1} = x^{-1}, y^2 = 1>

with n >= 2, s odd, and x of order exactly 2^{n-1} s.  The degenerate cases
are included: Q_4 ~ C_4 and D_4 ~ C_2 x C_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .abelian import GroupSpec, _factorize, make_group
from .errors import InvalidInputError

QUATERNION = "quaternion"
DIHEDRAL = "dihedral"


@dataclass(frozen=True)
class TargetKind:
    family: str
    n: int
    s: int

    def __post_init__(self):
        if self.family not in (QUATERNION, DIHEDRAL):
            raise InvalidInputError(f"unknown family {self.family!r}")
        if self.n < 2 or self.s < 1 or self.s % 2 == 0:
            raise InvalidInputError(f"need n >= 2 and s odd >= 1, got n={self.n} s={self.s}")

    @property
    def order(self) -> int:
        return (1 << self.n) * self.s

    @property
    def x_order(self) -> int:
        return (1 << (self.n - 1)) * self.s

    def label(self) -> str:
        return ("q" if self.family == QUATERNION else "d") + str(self.order)

    def display_name(self) -> str:
        if self.n == 2 and self.s == 1:
            return "C_4" if self.family == QUATERNION else "C_2×C_2"
        return ("Q_" if self.family == QUATERNION else "D_") + str(self.order)


def _kind_of_order(family: str, order: int) -> TargetKind:
    if order <= 0:
        raise InvalidInputError(f"order {order} is not positive")
    n = 0
    s = order
    while s % 2 == 0:
        s //= 2
        n += 1
    if n < 2:
        raise InvalidInputError(f"order {order} is not 2^n*s with n >= 2")
    return TargetKind(family, n, s)


def parse_kind(text: str) -> TargetKind:
    t = text.strip().lower()
    if len(t) < 2 or t[0] not in "qd" or not t[1:].isdigit():
        raise InvalidInputError(f"cannot parse target kind {text!r}")
    return _kind_of_order(QUATERNION if t[0] == "q" else DIHEDRAL, int(t[1:]))


def aut_order(kind: TargetKind) -> int:
    """|Aut| of the abstract target group.

    2^{2n-3} for s = 1 (quaternion n != 3, dihedral n >= 3) and
    2^{2n-3} s phi(s) for s >= 3; the three exceptional s = 1 groups are
    pinned to their known orders.
    """
    n, s = kind.n, kind.s
    if s == 1:
        if kind.family == QUATERNION and n == 3:
            return 24  # Q_8
        if kind.family == DIHEDRAL and n == 2:
            return 6  # C_2 x C_2
        return 1 << (2 * n - 3)
    phi = prod(p ** (e - 1) * (p - 1) for p, e in _factorize(s))
    return (1 << (2 * n - 3)) * s * phi


@lru_cache(maxsize=64)
def family_types(n: int) -> tuple[GroupSpec, GroupSpec]:
    """The additive types of the two families of order 2^n (n >= 2):
    C_{2^n} and C_2 x C_{2^(n-1)}."""
    return make_group([1 << n]), make_group([2, 1 << (n - 1)])


def admissible_types(n: int) -> list[GroupSpec]:
    """Abelian 2-groups of order 2^n that can carry a regular target subgroup,
    the two family types first, as a fresh list of the types built once per n."""
    return list(_admissible_types(n))


@lru_cache(maxsize=64)
def _admissible_types(n: int) -> tuple[GroupSpec, ...]:
    if n < 2:
        raise InvalidInputError("need n >= 2")
    out = list(family_types(n))
    rows = ([4, 2 ** (n - 2)], [2, 2, 2 ** (n - 2)], [2, 2, 2, 2 ** (n - 3)]) if n >= 3 else ()
    for row in rows:  # a factor 1 is dropped, and a type met before kept once
        spec = make_group([q for q in row if q > 1])
        if spec not in out:
            out.append(spec)
    return tuple(out)

