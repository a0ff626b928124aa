"""Elements of Hol(N) = N x| Aut(N) as affine pairs acting on N.

An element is (A, v): the permutation g -> A(g) + v.  Composition follows
the block-matrix convention (A, v)(B, w) = (AB, A(w) + v).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

from .abelian import Element, GroupSpec
from .endo import (
    Aut,
    aut_apply,
    aut_compose,
    aut_invert,
    identity_aut,
    is_unit,
)
from .errors import InvalidInputError
from .kernel import get_kernel


@dataclass(frozen=True)
class HolElement:
    group: GroupSpec
    aut: Aut
    trans: Element

    def __post_init__(self):
        self.group.check_element(self.trans)
        if len(self.aut) != len(self.group.primes) or not all(is_unit(m) for m in self.aut):
            raise InvalidInputError("automorphism part is not a unit tuple")

    def encode(self) -> tuple[tuple[int, ...], Element]:
        """Canonical encoding: flattened aut entries and translation residues."""
        return (tuple(v for m in self.aut for v in m.flat()), self.trans)


def hol_identity(group: GroupSpec) -> HolElement:
    return HolElement(group, identity_aut(group), group.identity())


def _check_same_group(x: HolElement, y) -> None:
    other = y.group if isinstance(y, HolElement) else None
    if other is not None and other != x.group:
        raise InvalidInputError("holomorph elements over different groups")


def hol_apply(x: HolElement, g: Element) -> Element:
    """The affine action A(g) + v."""
    return x.group.add(aut_apply(x.group, x.aut, g), x.trans)


def hol_compose(x: HolElement, y: HolElement) -> HolElement:
    _check_same_group(x, y)
    return HolElement(
        x.group,
        aut_compose(x.aut, y.aut),
        x.group.add(aut_apply(x.group, x.aut, y.trans), x.trans),
    )


def hol_invert(x: HolElement) -> HolElement:
    inv = aut_invert(x.aut)
    return HolElement(x.group, inv, x.group.neg(aut_apply(x.group, inv, x.trans)))


def hol_order(x: HolElement) -> int:
    """Least k >= 1 with x^k = id, by walking powers until the encoding repeats."""
    ident = hol_identity(x.group).encode()
    cur = x
    k = 1
    while cur.encode() != ident:
        cur = hol_compose(cur, x)
        k += 1
    return k


def exponent_bound(group: GroupSpec, p: int) -> int:
    """Upper bound p^K on orders of p-elements of Hol(N), K = ceil(log_p(r+1)) + d - 1.

    Bounds the order of any p-element for the p-part of N with rank r and
    exponent p^d; it is an upper bound, not necessarily attained.
    """
    r = group.rank(p)
    if r == 0:
        return 1
    d = group.exponents(p)[-1]
    t = 0
    while p**t < r + 1:
        t += 1
    return p ** (t + d - 1)


def order_spectrum(group: GroupSpec) -> dict[int, int]:
    """Exact census of element orders of Hol(N).

    Hol(N) is the product of the Hol(N_p), and an element's order is the lcm
    of its components' orders, so the census is the lcm-convolution of the
    component spectra.
    """
    counts: Counter[int] = Counter({1: 1})
    for sp in get_kernel(group).spaces:
        part = sp.order_spectrum()
        merged: Counter[int] = Counter()
        for a, n in counts.items():
            for b, m in part.items():
                merged[lcm(a, b)] += n * m
        counts = merged
    return dict(sorted(counts.items()))

