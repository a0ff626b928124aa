"""Braces induced by regular subgroups, and their Yang-Baxter solutions.

A regular subgroup S of Hol(N) has exactly one element g_a with translation
part a for each a in N; setting a o b = g_a(b) makes (N, +, o) a brace whose
lambda map is lambda_a(b) = -a + a o b.  Elements are handled by their
lexicographic index in N throughout.  A brace is its o-table `circ`; the
lambda rows are derived from it on first read, and only the YBE solution
reads them.

Every axiom is checked as one identity between whole rows, permutations of
the indices such as rho_a = circ[a] (b -> a o b) and tau_b (c -> b + c).
The brace axioms are checked on generators only (see `brace_violation`):
associativity for a in a o-generating set G, at most log2 n rows times n,
and the brace relation for a in G and b in the additive basis, 2 |G| rows
per factor, building only the translation rows it reads.  The braid
relation of the YBE solution is certified from the brace (see
`braid_certificate`): the output table is involutive, sigma_x = lambda_x,
r preserves o, and lambda is a homomorphism on the o-generators.  That is
n^2 lookups and at most n log2 n row compositions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Optional

from .abelian import GroupSpec, reach
from .errors import InternalConsistencyError, InvalidInputError
from .kernel import HolKernel, get_kernel
from .regular import RegularSubgroup

Row = tuple[int, ...]


@dataclass(frozen=True)
class BraceTable:
    group: GroupSpec
    circ: tuple[tuple[int, ...], ...]  # circ[a][b] = index of a o b

    @property
    def size(self) -> int:
        return self.group.order

    @cached_property
    def lam(self) -> tuple[Row, ...]:
        """lam[a][b] = index of lambda_a(b): lambda_a = tau_{-a} rho_a."""
        add = _add_table(self.group)
        return tuple(_compose(add[tau.index(0)], rho) for tau, rho in zip(add, self.circ))

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


def _translation(kern: HolKernel, a: int) -> Row:
    """tau_a: b -> a + b, the kernel's translation by a."""
    return kern.images(tuple(sp.add_rows[tab[a]] for sp, tab in zip(kern.spaces, kern.split_tabs)))


@lru_cache(maxsize=1)
def _add_table(group: GroupSpec) -> tuple[Row, ...]:
    """add[a] is tau_a for every a; the braces of one op share their group,
    so the table of the last group is kept."""
    kern = get_kernel(group)
    return tuple(_translation(kern, a) for a in range(group.order))


def brace_from_subgroup(sub: RegularSubgroup) -> BraceTable:
    """Materialize (N, +, o) from a regular subgroup: a o b = g_a(b).

    The row of g, `images(g)`, starts with its translation g(0).  So the
    sorted rows are g_0, g_1, ..., g_{n-1} iff their first column is
    0, 1, ..., n - 1, which holds iff the subgroup is regular."""
    circ = tuple(sorted(map(get_kernel(sub.group).images, sub.elements)))
    if [row[0] for row in circ] != list(range(sub.group.order)):
        raise InvalidInputError("subgroup is not regular")
    return BraceTable(sub.group, circ)


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
        if a not in reached:
            gens.append(a)
            reached = reach(0, [circ[g] for g in gens], lambda x, rho: rho[x], len(circ))
    return gens


def brace_violation(bt: BraceTable) -> Optional[tuple]:
    """First failure of the brace axioms on `circ`, or None.

    ("row-not-bijective", a) or ("identity", a): rho_a is not a permutation
    with rho_a(0) = a = rho_0(a).  ("associativity", a, b): rho_{a o b} !=
    rho_a rho_b.  ("brace-relation", a, b): lambda_a tau_b != tau_{lambda_a(b)}
    lambda_a, i.e. a o (b + c) != a o b - a + a o c for some c.  The failing
    (a, b) is the first in the order of the full double loop over N^2.

    Both n^2 identities are checked for a in the o-generators G =
    `circ_generators(circ)` only, the brace relation for b in the unit
    vectors of `group.factors`, in ascending index, only.  The set of a for
    which associativity holds for every b contains 0 and is closed under o
    (rho_{(a o a') o b} = rho_{a o (a' o b)} = rho_a rho_{a'} rho_b).  So is,
    once o is associative, the set of a with lambda_a additive, since then
    lambda_{a o a'} = lambda_a lambda_{a'}.  Each set holds what G reaches
    from 0, all of N, and its least non-member is in G: every generator
    below it is a member, so is all they reach, and the greedy choice takes
    the least element not reached.  For fixed a the set of b for which the
    relation holds is closed under + (lambda_a tau_{b + b'} =
    tau_{lambda_a(b) + lambda_a(b')} lambda_a, which at 0 makes lambda_a
    additive on it), and if the unit vectors below e are in it so is every
    index below e's, as they span those: its least non-member is the first
    failing unit vector.  So the first failure on generators is the first
    failure of the full double loop.
    """
    n = bt.size
    circ = bt.circ
    rng = range(n)
    for a in rng:
        if sorted(circ[a]) != list(rng):
            return ("row-not-bijective", a)
        if circ[a][0] != a or circ[0][a] != a:
            return ("identity", a)
    gens = circ_generators(circ)
    for g in gens:
        rho_g = circ[g]
        for b in rng:
            if circ[rho_g[b]] != _compose(rho_g, circ[b]):
                return ("associativity", g, b)
    group = bt.group
    kern = get_kernel(group)
    basis = sorted(group.strides)  # the unit vectors' indices
    tau = [_translation(kern, e) for e in basis]
    for g in gens:
        minus_g = group.index(group.neg(group.element_at(g)))
        lam_g = _compose(_translation(kern, minus_g), circ[g])
        for e, tau_e in zip(basis, tau):
            if _compose(lam_g, tau_e) != _compose(_translation(kern, lam_g[e]), lam_g):
                return ("brace-relation", g, e)
    return None


def verify_brace(bt: BraceTable) -> bool:
    """The group axioms for o and the brace relation, for every element
    (checked on generators, see `brace_violation`)."""
    return brace_violation(bt) is None


@dataclass(frozen=True)
class YbeSolution:
    group: GroupSpec
    table: tuple[tuple[tuple[int, int], ...], ...]  # r(x, y) as (u, v) pairs

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.table[x][y]


def braid_certificate(bt: BraceTable, table: tuple[tuple[tuple[int, int], ...], ...]) -> Optional[tuple]:
    """First failure of the identities that make `table` an involutive, left
    non-degenerate solution of the braid relation r12 r23 r12 = r23 r12 r23,
    or None.  `bt` must pass `verify_brace`: o is then a group with identity
    0 and every lambda_x = tau_{-x} rho_x is a permutation.

    `table[x][y]` is r(x, y) = (u, v) = (sigma_x(y), tau_y(x)).  In order:
    ("involutivity", x, y): r(u, v) != (x, y).  ("sigma-is-lambda", x, y):
    sigma_x(y) != lambda_x(y), which also makes every sigma_x a permutation.
    ("preserves-circ", x, y): u o v != x o y.  ("lambda-homomorphism", g, b):
    lambda_{g o b} != lambda_g lambda_b, for g in `circ_generators(circ)`.

    The set of a with lambda_{a o b} = lambda_a lambda_b for every b contains
    0 and is closed under o, so it holds all of N once it holds the
    generators, and its least non-member is a generator (as in
    `brace_violation`): the failing (g, b) is the first of the full double
    loop over N^2.  Then sigma_x sigma_y = lambda_{x o y} = lambda_{u o v} =
    sigma_u sigma_v, which for an involutive, left non-degenerate r is the
    braid relation on N^3 (Rump's cycle-set identity, Adv. Math. 193, 2005).
    The checks make |G| n row compositions and no other.
    """
    circ = bt.circ
    lam = bt.lam
    for x, row in enumerate(table):
        for y, (u, v) in enumerate(row):
            if table[u][v] != (x, y):
                return ("involutivity", x, y)
    for x, row in enumerate(table):
        if tuple(u for u, _ in row) != lam[x]:
            return ("sigma-is-lambda", x, next(y for y, (u, _) in enumerate(row) if u != lam[x][y]))
    for x, row in enumerate(table):
        if tuple(circ[u][v] for u, v in row) != circ[x]:
            return ("preserves-circ", x, next(y for y, (u, v) in enumerate(row) if circ[u][v] != circ[x][y]))
    for g in circ_generators(circ):
        lam_g, rho_g = lam[g], circ[g]
        for b, lam_b in enumerate(lam):
            if lam[rho_g[b]] != _compose(lam_g, lam_b):
                return ("lambda-homomorphism", g, b)
    return None


def ybe_solution(bt: BraceTable) -> YbeSolution:
    """The involutive solution r(x, y) = (lambda_x(y), lambda_x(y)^' o x o y).

    (' is inverse in (N, o).)  Involutivity, left non-degeneracy and the
    braid relation are certified by `braid_certificate`; failure raises
    InternalConsistencyError since the brace construction guarantees them.
    A finite involutive left non-degenerate solution is right non-degenerate
    too (Rump, Adv. Math. 193, 2005).
    """
    if not verify_brace(bt):
        raise InvalidInputError("not a brace table")
    n = bt.size
    circ = bt.circ
    inv = [row.index(0) for row in circ]  # a' with a o a' = 0 = a' o a
    table = tuple(
        tuple((u, circ[inv[u]][xy]) for u, xy in zip(bt.lam[x], circ[x])) for x in range(n)
    )
    bad = braid_certificate(bt, table)
    if bad is not None:
        raise InternalConsistencyError(f"{bad[0]} fails at {bad[1:]}")
    return YbeSolution(bt.group, table)
