"""Matrix model of End(N) and Aut(N) for finite abelian p-groups.

An endomorphism of Z/p^{a_1} x ... x Z/p^{a_r} (a_1 <= ... <= a_r) is an
r x r matrix whose (i, j) entry is a residue mod p^{a_i}, with the entry
divisible by p^{a_i - a_j} whenever a_i > a_j.  Units are exactly the
matrices whose mod-p reduction is invertible; they form Aut(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _product
from math import prod

from .abelian import Element, GroupSpec, _factorize
from .errors import InternalConsistencyError, InvalidInputError


@dataclass(frozen=True)
class EndoMatrix:
    p: int
    exponents: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def to_json(self) -> dict:
        return {"p": self.p, "exponents": list(self.exponents), "rows": [list(r) for r in self.rows]}


def make_endo(p: int, exponents, rows) -> EndoMatrix:
    """Reduce an integer matrix into canonical form and validate it.

    Rows are reduced mod p^{a_i}; the divisibility constraint must hold after
    reduction or the matrix does not define an endomorphism.
    """
    exponents = tuple(exponents)
    r = len(exponents)
    if len(rows) != r or any(len(row) != r for row in rows):
        raise InvalidInputError(f"need a {r}x{r} matrix, got {rows!r}")
    reduced = tuple(
        tuple(int(rows[i][j]) % p ** exponents[i] for j in range(r)) for i in range(r)
    )
    for i in range(r):
        for j in range(r):
            d = exponents[i] - exponents[j]
            if d > 0 and reduced[i][j] % p**d:
                raise InvalidInputError(
                    f"entry ({i},{j})={reduced[i][j]} not divisible by {p}^{d}"
                )
    return EndoMatrix(p, exponents, reduced)


def identity_endo(p: int, exponents) -> EndoMatrix:
    r = len(exponents)
    return make_endo(p, exponents, [[int(i == j) for j in range(r)] for i in range(r)])


def endo_apply(m: EndoMatrix, g: Element) -> Element:
    """Matrix-vector product with row-i arithmetic mod p^{a_i}."""
    if len(g) != m.rank:
        raise InvalidInputError(f"element {g!r} has wrong length for rank {m.rank}")
    p = m.p
    return tuple(
        sum(m.rows[i][j] * g[j] for j in range(m.rank)) % p ** m.exponents[i]
        for i in range(m.rank)
    )


def endo_compose(m1: EndoMatrix, m2: EndoMatrix) -> EndoMatrix:
    """Matrix product, canonical form: apply(compose(m1, m2), g) = m1(m2(g))."""
    if (m1.p, m1.exponents) != (m2.p, m2.exponents):
        raise InvalidInputError("matrices live over different p-groups")
    r = m1.rank
    rows = [
        [sum(m1.rows[i][k] * m2.rows[k][j] for k in range(r)) for j in range(r)]
        for i in range(r)
    ]
    return make_endo(m1.p, m1.exponents, rows)


def _inverse_mod_p(rows, p: int, r: int) -> list[list[int]] | None:
    """Inverse over F_p by Gauss-Jordan elimination, or None if singular."""
    aug = [[rows[i][j] % p for j in range(r)] + [int(i == j) for j in range(r)] for i in range(r)]
    for col in range(r):
        pivot = next((i for i in range(col, r) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def is_unit(m: EndoMatrix) -> bool:
    """True iff the mod-p reduction is invertible over F_p."""
    return _inverse_mod_p(m.rows, m.p, m.rank) is not None


def invert(m: EndoMatrix) -> EndoMatrix:
    """Inverse of a unit, by Newton lifting of the mod-p inverse."""
    p, r = m.p, m.rank
    x = _inverse_mod_p(m.rows, p, r)
    if x is None:
        raise InvalidInputError("matrix is not a unit")
    q = p ** m.exponents[-1]
    a = [list(row) for row in m.rows]
    prec = 1
    while p**prec < q:
        # X <- X (2I - A X), doubling the precision each pass
        ax = [[sum(a[i][k] * x[k][j] for k in range(r)) % q for j in range(r)] for i in range(r)]
        t = [[(2 * (i == j) - ax[i][j]) % q for j in range(r)] for i in range(r)]
        x = [[sum(x[i][k] * t[k][j] for k in range(r)) % q for j in range(r)] for i in range(r)]
        prec *= 2
    out = make_endo(p, m.exponents, x)
    check = endo_compose(m, out)
    if check != identity_endo(p, m.exponents):
        raise InternalConsistencyError("Newton lift failed to produce an inverse")
    return out


# An automorphism of a general N is a tuple of per-prime blocks, aligned with
# GroupSpec.primes.
Aut = tuple[EndoMatrix, ...]


@dataclass(frozen=True)
class AutGroup:
    group: GroupSpec
    blocks: tuple[tuple[EndoMatrix, ...], ...]

    @property
    def order(self) -> int:
        return prod(len(b) for b in self.blocks) if self.blocks else 1

    def __iter__(self):
        if not self.blocks:
            return iter([()])
        return _product(*self.blocks)

    def generators(self) -> tuple[Aut, ...]:
        return aut_generators(self.group)


def enumerate_aut(group: GroupSpec) -> AutGroup:
    """Every element of Aut(N) as matrices, sorted by entries; each prime
    block is held to the `HOLOBRACE_CAP` budget.

    Mixed-order groups get one block per prime; iteration yields the product.
    """
    from .kernel import _prime_space  # deferred; kernel imports this module

    blocks = []
    for p in group.primes:
        space = _prime_space(group.component(p))
        mats = (space.decode(perm)[0] for perm in space.aut_perms())
        blocks.append(tuple(sorted(mats, key=EndoMatrix.flat)))
    return AutGroup(group, tuple(blocks))


def _block_order(p: int, exps: tuple[int, ...]) -> int:
    """|Aut| of one p-block by Hillar & Rhea, Thm 4.1 (exps nondecreasing)."""
    r = len(exps)
    total = 1
    for k, e in enumerate(exps):
        d = max(l for l in range(1, r + 1) if exps[l - 1] == e)
        c = min(l for l in range(1, r + 1) if exps[l - 1] == e)
        total *= (p**d - p**k) * p ** (e * (r - d)) * p ** ((e - 1) * (r - c + 1))
    return total


def sylow_order(p: int, exps: tuple[int, ...]) -> int:
    """|P|, the p-part of the block order."""
    total, out = _block_order(p, exps), 1
    while total % p == 0:
        total //= p
        out *= p
    return out


def aut_order(group: GroupSpec) -> int:
    """|Aut(N)|, the product of the closed-form orders of the prime blocks."""
    return prod(_block_order(p, group.exponents(p)) for p in group.primes)


def _unit_generators(p: int, a: int) -> list[int]:
    """Generators of the unit group (Z/p^a)^x."""
    if p == 2:
        return [] if a == 1 else [3] if a == 2 else [2**a - 1, 5]
    q = p - 1
    g = next(g for g in range(2, p) if all(pow(g, q // f, p) != 1 for f, _ in _factorize(q)))
    if a > 1 and pow(g, q, p * p) == 1:
        g += p  # a primitive root mod p^2 is one mod every p^a
    return [g]


def _bump(p: int, exps: tuple[int, ...], i: int, j: int, value: int) -> EndoMatrix:
    """The identity matrix with entry (i, j) set to `value`."""
    r = len(exps)
    rows = [[int(a == b) for b in range(r)] for a in range(r)]
    rows[i][j] = value
    return make_endo(p, exps, rows)


def _hillar_rhea_generators(p: int, exps: tuple[int, ...]) -> list[EndoMatrix]:
    """Adjacent transvections I + p^{max(0, a_i - a_j)} E_ij, |i - j| = 1, and
    per-factor diagonal units: together they generate the unit block."""
    r = len(exps)
    out = []
    for i in range(r):
        for j in (i - 1, i + 1):
            if 0 <= j < r:
                out.append(_bump(p, exps, i, j, p ** max(0, exps[i] - exps[j])))
    for i, a in enumerate(exps):
        out.extend(_bump(p, exps, i, i, u) for u in _unit_generators(p, a))
    return out


def sylow_generators(p: int, exps: tuple[int, ...]) -> list[EndoMatrix]:
    """Generators of the distinguished Sylow p-subgroup of the unit block, the
    units whose mod-p reduction is unipotent upper triangular: I + E_ij above
    the diagonal, I + p^{max(1, a_i - a_j)} E_ij below it, and the diagonal
    units of p-power order."""
    r = len(exps)
    out = [
        _bump(p, exps, i, j, 1 if i < j else p ** max(1, exps[i] - exps[j]))
        for i in range(r)
        for j in range(r)
        if i != j
    ]
    for i, a in enumerate(exps):
        units = _unit_generators(p, a) if p == 2 else [1 + p] if a > 1 else []
        out.extend(_bump(p, exps, i, i, u) for u in units)
    return out


@lru_cache(maxsize=None)
def aut_generators(group: GroupSpec) -> tuple[Aut, ...]:
    """Explicit generators of Aut(N), each acting on one prime block."""
    ident = identity_aut(group)
    gens = []
    for k, p in enumerate(group.primes):
        for m in _hillar_rhea_generators(p, group.exponents(p)):
            gens.append(ident[:k] + (m,) + ident[k + 1 :])
    return tuple(gens)


# -- automorphisms of the whole group ----------------------------------------


def aut_apply(group: GroupSpec, aut: Aut, g: Element) -> Element:
    group.check_element(g)
    out: list[int] = []
    for p, block in zip(group.primes, aut):
        sl = group.prime_slice(p)
        out.extend(endo_apply(block, tuple(g[sl])))
    return tuple(out)


def aut_compose(aut1: Aut, aut2: Aut) -> Aut:
    return tuple(endo_compose(a, b) for a, b in zip(aut1, aut2))


def aut_invert(aut: Aut) -> Aut:
    return tuple(invert(a) for a in aut)


def identity_aut(group: GroupSpec) -> Aut:
    return tuple(identity_endo(p, group.exponents(p)) for p in group.primes)
