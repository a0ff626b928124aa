"""Braces induced by regular subgroups, and their Yang-Baxter solutions.

A regular subgroup S of Hol(N) has exactly one element g_a with translation
part a for each a in N; setting a o b = g_a(b) makes (N, +, o) a brace whose
lambda map is lambda_a(b) = -a + a o b.  Elements are handled by their
lexicographic index in N throughout.

Every axiom is checked as one identity between whole rows, permutations of
the indices such as rho_a = circ[a] (b -> a o b) and tau_b (c -> b + c).
The brace axioms are checked on generators only (see `brace_violation`):
associativity for a in a o-generating set, at most log2 n rows times n, and
the brace relation for b in the additive basis, n rows times the number of
factors.  The braid relation of the YBE solution stays a direct check of
every (x, y), n^2 row compositions, since it is the check of the output
table that does not rest on the brace axioms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .abelian import GroupSpec
from .errors import InternalConsistencyError, InvalidInputError
from .kernel import get_kernel
from .regular import RegularSubgroup

Row = tuple[int, ...]


@dataclass(frozen=True)
class BraceTable:
    group: GroupSpec
    circ: tuple[tuple[int, ...], ...]  # circ[a][b] = index of a o b
    lam: tuple[tuple[int, ...], ...]   # lam[a][b]  = index of lambda_a(b)

    @property
    def size(self) -> int:
        return self.group.order

    def is_trivial(self) -> bool:
        return self.circ == _add_table(self.group)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "factors": list(self.group.factors),
            "circ": [list(row) for row in self.circ],
        }

    def dump(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _compose(p: Row, q: Row) -> Row:
    """(p q)(i) = p[q[i]]; rows have at least two entries."""
    return itemgetter(*q)(p)


def _add_table(group: GroupSpec) -> tuple[Row, ...]:
    """add[a] is tau_a: b -> a + b, the kernel's translation by a."""
    kern = get_kernel(group)
    return tuple(
        kern.images(tuple(sp.add_rows[tab[a]] for sp, tab in zip(kern.spaces, kern.split_tabs)))
        for a in range(group.order)
    )


def _lambda_rows(add: tuple[Row, ...], circ: tuple[Row, ...]) -> list[Row]:
    """lambda_a = tau_{-a} rho_a for every a."""
    return [_compose(add[row.index(0)], rho) for row, rho in zip(add, circ)]


def brace_from_subgroup(sub: RegularSubgroup) -> BraceTable:
    """Materialize (N, +, o) from a regular subgroup: a o b = g_a(b)."""
    group = sub.group
    kern = get_kernel(group)
    n = group.order
    elements = sub.elements
    by_trans = {kern.trans_index(e): e for e in elements}
    if len(by_trans) != n or len(elements) != n:
        raise InvalidInputError("subgroup is not regular")
    circ = tuple(kern.images(by_trans[a]) for a in range(n))
    return BraceTable(group, circ, tuple(_lambda_rows(_add_table(group), circ)))


def circ_generators(circ: tuple[Row, ...]) -> list[int]:
    """Greedy o-generators, in ascending order: the least element not yet
    reached from 0 by the rho_g of the g already chosen, until every element
    is reached.

    Needs circ[a][0] = a, so that each chosen g is reached (rho_g(0) = g).
    Each new g lies outside the subgroup the earlier ones generate, so in a
    group it at least doubles it: at most log2 n generators.
    """
    reached = {0}
    gens: list[int] = []
    for a in range(len(circ)):
        if a in reached:
            continue
        gens.append(a)
        rows = [circ[g] for g in gens]
        todo = list(reached)
        while todo:
            x = todo.pop()
            for rho in rows:
                y = rho[x]
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    return gens


def brace_violation(bt: BraceTable) -> Optional[tuple]:
    """First failure of the brace axioms on `circ` (`lam` is not read), or None.

    ("row-not-bijective", a) or ("identity", a): rho_a is not a permutation
    with rho_a(0) = a = rho_0(a).  ("associativity", a, b): rho_{a o b} !=
    rho_a rho_b.  ("brace-relation", a, b): lambda_a tau_b != tau_{lambda_a(b)}
    lambda_a, i.e. a o (b + c) != a o b - a + a o c for some c.  The failing
    (a, b) is the first in the order of the full double loop over N^2.

    Both n^2 identities are checked on generators only:

    - associativity for a in `circ_generators(circ)` and every b.  The set A
      of a for which it holds for every b contains 0 (rho_0 is the identity)
      and is closed under o (rho_{(a o a') o b} = rho_{a o (a' o b)} = rho_a
      rho_{a'} rho_b), so it holds every right-nested product of the
      generators from 0, which is all of N.  The least a outside A is itself
      a generator: every earlier generator lies in A, so what they reach
      does too, and the greedy choice takes the least element not reached;
    - the brace relation for every a and each unit vector e of
      `group.factors`, in ascending index.  For fixed a the set B of b for
      which it holds is closed under + (lambda_a tau_{b + b'} =
      tau_{lambda_a(b) + lambda_a(b')} lambda_a, and at 0 this gives
      lambda_a(b + b') = lambda_a(b) + lambda_a(b') as lambda_a(0) = 0), so
      it is all of N.  If the unit vectors below e lie in B, so do all
      indices below e's, as those are the elements they span: the least b
      outside B is the first failing unit vector.

    So the first failure on generators is the first failure of the full
    double loop, and no full scan is needed to name it.
    """
    n = bt.size
    circ = bt.circ
    rng = range(n)
    for a in rng:
        if sorted(circ[a]) != list(rng):
            return ("row-not-bijective", a)
        if circ[a][0] != a or circ[0][a] != a:
            return ("identity", a)
    for g in circ_generators(circ):
        rho_g = circ[g]
        for b in rng:
            if circ[rho_g[b]] != _compose(rho_g, circ[b]):
                return ("associativity", g, b)
    add = _add_table(bt.group)
    basis = sorted(bt.group.strides)  # the unit vectors' indices
    for a, lam_a in enumerate(_lambda_rows(add, circ)):
        for e in basis:
            if _compose(lam_a, add[e]) != _compose(add[lam_a[e]], lam_a):
                return ("brace-relation", a, e)
    return None


def verify_brace(bt: BraceTable) -> bool:
    """The group axioms for o and the brace relation, for every element
    (checked on generators, see `brace_violation`)."""
    return brace_violation(bt) is None


def lambda_is_homomorphism(bt: BraceTable) -> bool:
    """lambda_{a o b} = lambda_a lambda_b for every a, b.

    This follows from the brace axioms; it is not part of `verify_brace`,
    and serves as an independent check in tests.
    """
    lam, circ = bt.lam, bt.circ
    return all(
        lam[circ[a][b]] == _compose(lam[a], lam[b]) for a in range(bt.size) for b in range(bt.size)
    )


@dataclass(frozen=True)
class YbeSolution:
    group: GroupSpec
    table: tuple[tuple[tuple[int, int], ...], ...]  # r(x, y) as (u, v) pairs
    left_bijective: bool
    right_bijective: bool

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.table[x][y]


def ybe_violation(table: tuple[tuple[tuple[int, int], ...], ...]) -> Optional[tuple]:
    """First failure of r as an involutive, left non-degenerate solution of
    the braid relation r12 r23 r12 = r23 r12 r23, or None.

    `table[x][y]` is r(x, y) = (sigma_x(y), tau_y(x)).  ("involutivity", x, y):
    r(r(x, y)) != (x, y).  ("left-degenerate", x): sigma_x is not a
    permutation.  ("braid", x, y): sigma_x sigma_y != sigma_u sigma_v for
    (u, v) = r(x, y); for involutive, left non-degenerate r this identity on
    N^2 is equivalent to the braid relation on N^3 (Rump's cycle-set identity,
    Adv. Math. 193, 2005).
    """
    n = len(table)
    for x, row in enumerate(table):
        for y, (u, v) in enumerate(row):
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    sigma = [tuple(u for u, _ in row) for row in table]
    for x, s in enumerate(sigma):
        if sorted(s) != list(range(n)):
            return ("left-degenerate", x)
    for x, row in enumerate(table):
        s = sigma[x]
        for y, (u, v) in enumerate(row):
            if _compose(s, sigma[y]) != _compose(sigma[u], sigma[v]):
                return ("braid", x, y)
    return None


def ybe_solution(bt: BraceTable) -> YbeSolution:
    """The involutive solution r(x, y) = (lambda_x(y), lambda_x(y)^' o x o y).

    (' is inverse in (N, o).)  Involutivity and the braid relation are
    checked by `ybe_violation`; failure raises InternalConsistencyError since
    the brace construction guarantees both.
    """
    if not verify_brace(bt):
        raise InvalidInputError("not a brace table")
    n = bt.size
    circ = bt.circ
    inv = [row.index(0) for row in circ]  # a' with a o a' = 0 = a' o a
    table = tuple(
        tuple((u, circ[inv[u]][xy]) for u, xy in zip(bt.lam[x], circ[x])) for x in range(n)
    )
    bad = ybe_violation(table)
    if bad is not None:
        raise InternalConsistencyError(f"{bad[0]} fails at {bad[1:]}")
    right = all(sorted(v for _, v in col) == list(range(n)) for col in zip(*table))
    return YbeSolution(bt.group, table, True, right)
