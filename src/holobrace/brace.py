"""Braces induced by regular subgroups, and their Yang-Baxter solutions.

A regular subgroup S of Hol(N) has exactly one element g_a with translation
part a for each a in N; setting a o b = g_a(b) makes (N, +, o) a brace whose
lambda map is lambda_a(b) = -a + a o b.  Elements are handled by their
lexicographic index in N throughout.  A brace is its o-table `circ`; the
lambda rows, their inverses and the o-generators are derived from it on
first read, each once, and both checks read them from there.

Every axiom is checked as one identity between whole rows, permutations of
the indices such as rho_a = circ[a] (b -> a o b) and tau_b (c -> b + c).
The brace axioms are checked on generators only (see `brace_violation`):
associativity for a in a o-generating set G, at most log2 n rows times n,
and the brace relation for a in G and b in the additive basis, 2 |G| rows
per factor, read from lambda and the group's addition table.  A YBE solution
is two families of rows, sigma and tau, certified from the brace (see
`braid_certificate`) by four row identities: sigma_x = lambda_x, r
involutive, r preserving o, and lambda a homomorphism on the o-generators,
at most n (log2 n + 2) row compositions and no table of n^2 pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Optional

from .abelian import GroupSpec, reach
from .errors import InternalConsistencyError, InvalidInputError
from .kernel import get_kernel
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

    @cached_property
    def lam_inverse(self) -> tuple[Row, ...]:
        """lam_inverse[a] = lambda_a^-1, read by the YBE solution and its certificate."""
        return tuple(map(_inverse, self.lam))

    @cached_property
    def gens(self) -> tuple[int, ...]:
        """`circ_generators(circ)`, read by both checks; needs circ[a][0] = a."""
        return tuple(circ_generators(self.circ))

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


@lru_cache(maxsize=1)
def _add_table(group: GroupSpec) -> tuple[Row, ...]:
    """add[a] is tau_a: b -> a + b for every a; the braces of one op share
    their group, so the table of the last group is kept."""
    kern = get_kernel(group)
    rows = (tuple(sp.add_rows[tab[a]] for sp, tab in zip(kern.spaces, kern.split_tabs)) for a in range(group.order))
    return tuple(map(kern.images, rows))


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
    indices = frozenset(rng)
    for a in rng:
        if len(circ[a]) != n or indices.difference(circ[a]):  # n entries, every index
            return ("row-not-bijective", a)
        if circ[a][0] != a or circ[0][a] != a:
            return ("identity", a)
    for g in bt.gens:
        rho_g = circ[g]
        for b in rng:
            if circ[rho_g[b]] != _compose(rho_g, circ[b]):
                return ("associativity", g, b)
    add, basis = _add_table(bt.group), sorted(bt.group.strides)  # basis: the unit vectors' indices
    for g in bt.gens:
        lam_g = bt.lam[g]
        for e in basis:
            if _compose(lam_g, add[e]) != _compose(add[lam_g[e]], lam_g):
                return ("brace-relation", g, e)
    return None


def verify_brace(bt: BraceTable) -> bool:
    """The group axioms for o and the brace relation, for every element
    (checked on generators, see `brace_violation`)."""
    return brace_violation(bt) is None


@dataclass(frozen=True)
class YbeSolution:
    group: GroupSpec
    sigma: tuple[Row, ...]  # sigma[x][y] = sigma_x(y), the first component of r(x, y)
    tau: tuple[Row, ...]  # tau[x][y] = tau_y(x), the second

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[x][y]

    @cached_property
    def table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(map(tuple, map(zip, self.sigma, self.tau)))


def _inverse(p: Row) -> Row:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def braid_certificate(bt: BraceTable, sigma: tuple[Row, ...], tau: tuple[Row, ...]) -> Optional[tuple]:
    """First failure of the identities that make r(x, y) = (sigma[x][y],
    tau[x][y]) an involutive, left non-degenerate solution of the braid
    relation r12 r23 r12 = r23 r12 r23, or None.  `bt` must pass
    `verify_brace`, so o is a group and every lambda_x a permutation.  With
    u = lambda_x(y), lt_x(u) = lambda_u^-1(x) and m_x = rho_x lambda_x^-1,
    one row identity per x, each named by its first failing (x, y), in order:
    ("sigma-is-lambda", x, y): sigma_x != lambda_x (so sigma_x permutes N).
    ("involutivity", x, y): tau[x] != lt_x lambda_x.  ("preserves-circ", x,
    y): m_x(u) != m_u(x).  ("lambda-homomorphism", g, b): lambda_{g o b} !=
    lambda_g lambda_b, g in `circ_generators(circ)`.  A family of other than n
    rows, or a row that is no tuple of n entries, fails at its first bad x:
    at its first missing entry, else at y = 0 (an extra row is x = n).

    Each is its entrywise identity on all of N^2.  Given sigma = lambda and
    v = tau[x][y], r(u, v) starts with lambda_u(v), which is x iff v =
    lt_x(u); it then ends with tau[u][v] = lt_u(x) = lambda_x^-1(u) = y.
    Given involutivity, u o v = m_u(x) and x o y = m_x(u), and u runs over N
    as y does.  The a with lambda_{a o b} = lambda_a lambda_b for every b
    contain 0 and are closed under o, so, as in `brace_violation`, they are
    N once they hold G, and the first failure is that of the full loop.  Then
    sigma_x sigma_y = lambda_{x o y} = lambda_{u o v} = sigma_u sigma_v, for
    involutive, left non-degenerate r the braid relation on N^3 (Rump's
    cycle-set identity, Adv. Math. 193, 2005).  (|G| + 2) n row compositions."""
    circ, lam, inv = bt.circ, bt.lam, bt.lam_inverse
    m = tuple(map(_compose, circ, inv))
    n = bt.size
    same = [range(n)] * n
    for name, got, want, at in (
        ("sigma-is-lambda", sigma, lam, same),
        ("involutivity", tau, map(_compose, zip(*inv), lam), same),
        ("preserves-circ", m, zip(*m), lam),  # entry (x, y) at u = lambda_x(y)
    ):
        for x, want_x in enumerate(want):
            row = got[x] if x < len(got) else ()  # a missing row
            if row != want_x:
                bad = (y for y, u in enumerate(at[x]) if u >= len(row) or row[u] != want_x[u])
                return (name, x, next(bad, 0))  # y = 0 if only the length or type differs
        if len(got) > n:
            return (name, n, 0)
    for g in bt.gens:
        lam_g, rho_g = lam[g], circ[g]
        for b, lam_b in enumerate(lam):
            if lam[rho_g[b]] != _compose(lam_g, lam_b):
                return ("lambda-homomorphism", g, b)
    return None


def ybe_solution(bt: BraceTable) -> YbeSolution:
    """The involutive solution r(x, y) = (u, lambda_u^-1(x)) = (u, u' o x o y)
    for u = lambda_x(y) (' inverse in (N, o)): tau[x] = lt_x lambda_x, lt the
    transpose of the inverse rows, certified by `braid_certificate` (a failure
    raises InternalConsistencyError: the brace guarantees it).  A finite
    involutive left non-degenerate solution is right non-degenerate too (Rump,
    Adv. Math. 193, 2005)."""
    if not verify_brace(bt):
        raise InvalidInputError("not a brace table")
    tau = tuple(map(_compose, zip(*bt.lam_inverse), bt.lam))
    bad = braid_certificate(bt, bt.lam, tau)
    if bad is not None:
        raise InternalConsistencyError(f"{bad[0]} fails at {bad[1:]}")
    return YbeSolution(bt.group, bt.lam, tau)
