"""Exact arithmetic in finite abelian groups given by prime-power factors.

A group is a `GroupSpec`: a canonical tuple of prime powers sorted by
(prime, exponent), so two isomorphic inputs always produce equal specs.
Elements are plain tuples of residues, one per factor, least nonnegative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _product
from math import gcd, isqrt, lcm, prod
from typing import Iterator

from .errors import CapacityError, InvalidInputError

Element = tuple[int, ...]


def reach(start, moves, step, bound: int) -> frozenset:
    """Everything reachable from `start` by `step(cur, move)`: a subgroup from
    its generators, an orbit from a point.  CapacityError past `bound` nodes."""
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for move in moves:
            nxt = step(cur, move)
            if nxt not in seen:
                if len(seen) >= bound:
                    raise CapacityError(f"closure exceeded its bound {bound}", cap=bound)
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


TRIAL_DIVISOR_BITS = 20  # the widest divisor `_factorize` tries
_ODD_DIVISORS = range(3, 1 << TRIAL_DIVISOR_BITS, 2)


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (p, multiplicity) pairs, p ascending.

    Trial division tries no divisor past `TRIAL_DIVISOR_BITS` bits: a
    cofactor left past them whose square root has more bits raises
    CapacityError, needed those bits, and no message echoes the number."""
    out = []
    twos = (n & -n).bit_length() - 1  # the exponent of 2 in n
    if twos > 0:
        out.append((2, twos))
        n >>= twos
    for d in _ODD_DIVISORS:
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    else:
        needed = isqrt(n).bit_length()
        if needed > TRIAL_DIVISOR_BITS:
            raise CapacityError(
                f"trial division stops at divisors of {TRIAL_DIVISOR_BITS} bits", needed=needed, cap=TRIAL_DIVISOR_BITS
            )
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class GroupSpec:
    """Canonical presentation of a finite abelian group.

    `factors` holds prime powers grouped per prime with nondecreasing
    exponents within a prime; primes appear in ascending order.
    """

    factors: tuple[int, ...]

    @cached_property
    def order(self) -> int:
        return prod(self.factors) if self.factors else 1

    @cached_property
    def prime_of_factor(self) -> tuple[tuple[int, int], ...]:
        """(p, a) for each factor, aligned with `factors`."""
        return tuple(_factorize(q)[0] for q in self.factors)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        seen = []
        for p, _ in self.prime_of_factor:
            if p not in seen:
                seen.append(p)
        return tuple(seen)

    def exponents(self, p: int) -> tuple[int, ...]:
        """The exponent list (a_1 <= ... <= a_r) of the p-part."""
        return tuple(a for q, a in self.prime_of_factor if q == p)

    def rank(self, p: int) -> int:
        return len(self.exponents(p))

    def prime_slice(self, p: int) -> slice:
        """Positions of the p-part factors (contiguous by canonicality)."""
        idxs = [i for i, (q, _) in enumerate(self.prime_of_factor) if q == p]
        if not idxs:
            return slice(0, 0)
        return slice(idxs[0], idxs[-1] + 1)

    def component(self, p: int) -> "GroupSpec":
        # the p-part factors of a canonical tuple are canonical themselves
        part = tuple(q for q, (pp, _) in zip(self.factors, self.prime_of_factor) if pp == p)
        return _canonical(part) if part else _TRIVIAL

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix strides; first factor is most significant."""
        out = []
        acc = 1
        for q in reversed(self.factors):
            out.append(acc)
            acc *= q
        return tuple(reversed(out))

    # -- element arithmetic ------------------------------------------------

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def check_element(self, g: Element) -> None:
        if len(g) != len(self.factors) or any(
            not (0 <= r < q) for r, q in zip(g, self.factors)
        ):
            raise InvalidInputError(f"{g!r} is not an element of {self}")

    def add(self, g: Element, h: Element) -> Element:
        self.check_element(g)
        self.check_element(h)
        return tuple((a + b) % q for a, b, q in zip(g, h, self.factors))

    def neg(self, g: Element) -> Element:
        self.check_element(g)
        return tuple((-a) % q for a, q in zip(g, self.factors))

    def sub(self, g: Element, h: Element) -> Element:
        return self.add(g, self.neg(h))

    def element_order(self, g: Element) -> int:
        """Least k >= 1 with k*g = 0; the lcm of per-factor residue orders."""
        self.check_element(g)
        return lcm(*(q // gcd(a, q) for a, q in zip(g, self.factors))) if g else 1

    # -- indexing and iteration ---------------------------------------------

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order over residue vectors."""
        return _product(*(range(q) for q in self.factors))

    def index(self, g: Element) -> int:
        self.check_element(g)
        return sum(a * s for a, s in zip(g, self.strides))

    def element_at(self, idx: int) -> Element:
        if not (0 <= idx < self.order):
            raise InvalidInputError(f"index {idx} out of range for {self}")
        out = []
        for s in self.strides:
            out.append(idx // s)
            idx %= s
        return tuple(out)

    # -- structure ----------------------------------------------------------

    @cached_property
    def odd_order(self) -> int:
        return prod(q for q, (p, _) in zip(self.factors, self.prime_of_factor) if p != 2) or 1

    @cached_property
    def two_adic(self) -> int:
        """n with 2^n the order of the 2-part."""
        return sum(a for p, a in self.prime_of_factor if p == 2)

    def is_cyclic(self) -> bool:
        return all(self.rank(p) == 1 for p in self.primes)

    def display_name(self) -> str:
        """Display name: the odd part first, as one C_s when it is cyclic,
        then the factors of the 2-part ascending."""
        if not self.factors:
            return "1"
        odd, two = sylow_decompose(self)
        shown = (odd.order,) if odd.factors and odd.is_cyclic() else odd.factors
        return "×".join(f"C_{q}" for q in shown + two.factors)

    def __str__(self) -> str:
        return self.display_name()


@lru_cache(maxsize=None)
def _canonical(factors: tuple[int, ...]) -> GroupSpec:
    """The one GroupSpec of a canonical tuple of prime powers."""
    return GroupSpec(factors)


def make_group(orders) -> GroupSpec:
    """Canonicalize a list of cyclic orders into a GroupSpec.

    Orders are factored into prime powers, grouped per prime and sorted, so
    [4, 2], [2, 4] and [8] vs [2, 2, 2] behave predictably: isomorphic inputs
    give the same spec object, memoized on the prime powers.
    """
    orders = tuple(orders)
    if not orders:
        raise InvalidInputError("need at least one cyclic order")
    prime_powers = []
    for q in orders:
        if not isinstance(q, int) or q < 2:
            raise InvalidInputError(f"cyclic order {q!r} must be an integer >= 2")
        prime_powers += _factorize(q)
    return _canonical(tuple(p**e for p, e in sorted(prime_powers)))


_SPEC_BRACKET = re.compile(r"^\[([0-9,\s]*)\]$")
_SPEC_CFORM = re.compile(r"^c(\d+)(?:xc(\d+))*$")


def _parse_decimals(tokens, text: str) -> list[int]:
    """The spec's decimals; one past Python's int-string digit limit is an input error."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise InvalidInputError(f"spec of {len(text)} characters has a number with too many digits") from None


def parse_group(text: str) -> GroupSpec:
    """Parse "c2xc8"-style names or bracketed lists like "[3,2,8]"."""
    squeezed = "".join(text.split()).lower()
    m = _SPEC_BRACKET.match(squeezed)
    if m:
        body = m.group(1).strip()
        if not body:
            raise InvalidInputError(f"empty group spec: {text!r}")
        return make_group(_parse_decimals(filter(None, body.split(",")), text))
    if _SPEC_CFORM.match(squeezed):
        return make_group(_parse_decimals(squeezed[1:].split("xc"), text))
    raise InvalidInputError(f"cannot parse group spec {text!r}")


_TRIVIAL = GroupSpec(())  # the trivial group, which `make_group` refuses to build


def sylow_decompose(group: GroupSpec) -> tuple[GroupSpec, GroupSpec]:
    """Split N into its odd part N_s and its 2-part N_2, each the memoized
    spec of its canonical factors, so that one group is one object."""
    odd = tuple(q for q in group.factors if q % 2)
    return (_canonical(odd) if odd else _TRIVIAL), group.component(2)
