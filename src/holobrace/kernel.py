"""Byte-permutation model of Hol(N) = prod_p Hol(N_p).

Each Sylow component gets a `PrimeSpace`: its elements are indexed and an
affine map is stored as a length-m `bytes` permutation of those indices.
A holomorph element of the whole group is a tuple with one permutation per
prime, composed componentwise.  This keeps the hot loops (composition,
orders, conjugation) on C-speed bytes operations.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Container, Iterator
from functools import lru_cache
from itertools import product, repeat
from math import gcd, lcm, prod
from operator import add, mul

from . import config
from .abelian import Element, GroupSpec, reach
from .endo import (
    Aut,
    EndoMatrix,
    aut_generators,
    aut_order,
    endo_apply,
    make_endo,
    sylow_generators,
    sylow_order,
)
from .errors import CapacityError, InternalConsistencyError, InvalidInputError

KernelElement = tuple[bytes, ...]


class PrimeSpace:
    """Permutations of one Sylow component N_p, as bytes of length |N_p|."""

    def __init__(self, spec: GroupSpec):
        if spec.order > 255:
            raise CapacityError(
                f"component {spec} is too large for the bytes kernel", needed=spec.order, cap=255
            )
        self.spec = spec
        self.m = spec.order
        self.elems: list[Element] = list(spec.elements())
        self.index: dict[Element, int] = {g: i for i, g in enumerate(self.elems)}
        m = self.m
        self._pad = bytes(256 - m)
        # translation permutations; row v is the perm g -> g + v, where
        # index(g + v) = sum_j ((g_j + v_j) mod q_j) * stride_j (mixed radix)
        radix = list(zip(spec.factors, spec.strides))
        self.add_rows: list[bytes] = [
            bytes(map(sum, product(*([(a + b) % q * s for a in range(q)] for b, (q, s) in zip(v, radix)))))
            for v in self.elems
        ]
        # row v padded to a translate table, so that p.translate(tab) is v + p
        self._add_tabs: list[bytes] = [row + self._pad for row in self.add_rows]
        self.neg_idx: list[int] = [self.index[spec.neg(g)] for g in self.elems]
        self.orders: list[int] = [spec.element_order(g) for g in self.elems]
        self.identity: bytes = bytes(range(m))
        self._basis_idx = list(spec.strides)  # e_j sits at index stride_j
        self._aut_perm_memo: dict[EndoMatrix, bytes] = {}
        self._blocks: dict[str, list[bytes]] = {}
        self.p = spec.primes[0]
        self.aut_size = aut_order(spec)
        self.sylow_size = sylow_order(self.p, spec.exponents(self.p))

    # -- permutation algebra -------------------------------------------------

    def compose(self, p: bytes, q: bytes) -> bytes:
        """(p o q)(i) = p[q[i]]."""
        return q.translate(p + self._pad)

    def inverse(self, p: bytes) -> bytes:
        return bytes.maketrans(p, self.identity)[: self.m]

    def order(self, p: bytes) -> int:
        """Least k >= 1 with p^k = id."""
        return len(self.cycle(p))

    def cycle(self, p: bytes, start: bytes | None = None, count: int | None = None) -> list[bytes]:
        """The cycle [s, p s, p^2 s, ...] of s = start (the identity by
        default) under p: p^i s for i below the order of p, or below `count`
        where that is smaller, so p^k s is at k % len for every k below
        `count`.  One translate per step, through p padded once."""
        s = self.identity if start is None else start
        tab, out = p + self._pad, [s]
        cur = s.translate(tab)
        while cur != s and len(out) != count:  # count None: the whole cycle
            out.append(cur)
            cur = cur.translate(tab)
        return out

    # -- affine maps ----------------------------------------------------------

    def linear_perm(self, col_idx: list[int]) -> bytes:
        """Permutation of the mixed-radix map g -> sum_j g_j c_j, c_j = col_idx[j]:
        the linear map sending basis vector j to c_j when every q_j c_j = 0.

        The factors are taken last first.  The images of the points k e_j + h,
        h over the later factors, are block k, and block k is block k-1
        translated by c_j."""
        img = bytes(1)
        for q, c in zip(reversed(self.spec.factors), reversed(col_idx)):
            tab, block = self._add_tabs[c], img
            for _ in range(q - 1):
                block = block.translate(tab)
                img += block
        return img

    def aut_perm(self, m: EndoMatrix) -> bytes:
        cached = self._aut_perm_memo.get(m)
        if cached is None:
            cols = [self.index[endo_apply(m, self.elems[b])] for b in self._basis_idx]
            cached = self.linear_perm(cols)
            self._aut_perm_memo[m] = cached
        return cached

    def hol_perm(self, aut_bytes: bytes, v_idx: int) -> bytes:
        """g -> A(g) + v as a permutation."""
        return aut_bytes.translate(self._add_tabs[v_idx])

    def linear_part(self, p: bytes) -> bytes:
        """A of the affine permutation p = (A, v): p followed by the translation by -v, v = p(0)."""
        return p.translate(self._add_tabs[self.neg_idx[p[0]]])

    def is_linear(self, p: bytes) -> bool:
        """True iff the permutation p of N_p is additive.

        p must commute with the basis translations, p τ_e = τ_{p(e)} p, so
        that p(g + e) = p(g) + p(e) for every g.  That implies the order
        condition q_j c_j = 0 on the image c_j of each basis vector e_j,
        which is checked first because it is cheaper.
        """
        orders, basis, tabs = self.orders, self._basis_idx, self._add_tabs
        for q, b in zip(self.spec.factors, basis):
            if q % orders[p[b]]:
                return False
        tab = p + self._pad
        for b in basis:
            if self.add_rows[b].translate(tab) != p.translate(tabs[p[b]]):
                return False
        return True

    def decode(self, p: bytes) -> tuple[EndoMatrix, Element] | None:
        """Recover (A, v) from an affine permutation; None if p is not affine."""
        lin = self.linear_part(p)
        if not self.is_linear(lin):
            return None
        rows = tuple(zip(*(self.elems[lin[b]] for b in self._basis_idx)))  # column j is A(e_j)
        return make_endo(self.p, self.spec.exponents(self.p), rows), self.elems[p[0]]

    # -- element pools ---------------------------------------------------------

    def aut_perms(self) -> list[bytes]:
        """Aut(N_p), closed from the Hillar-Rhea generators, sorted."""
        return self._closed_block(
            "full", self.aut_size, lambda: [m for (m,) in aut_generators(self.spec)]
        )

    def sylow_aut_perms(self) -> list[bytes]:
        """The unipotent upper triangular Sylow p-subgroup of Aut(N_p), sorted."""
        return self._closed_block(
            "Sylow", self.sylow_size, lambda: sylow_generators(self.p, self.spec.exponents(self.p))
        )

    def _closed_block(self, name: str, size: int, gens: Callable[[], list[EndoMatrix]]) -> list[bytes]:
        """The sorted closure of `gens()`, which must have exactly `size`
        elements.  The cap is checked on every call, before the memo; the
        generators are built only on a memo miss."""
        cap = config.aut_candidate_cap()
        if size > cap:
            raise CapacityError(
                f"{name} block of Aut({self.spec}) has {size} elements, cap {cap}",
                needed=size,
                cap=cap,
            )
        block = self._blocks.get(name)
        if block is None:
            perms = [self.aut_perm(m) for m in gens()]
            try:
                block = sorted(reach(self.identity, perms, self.compose, size))
            except CapacityError:
                block = []
            if len(block) != size:
                raise InternalConsistencyError(
                    f"{name} generators of Aut({self.spec}) do not close to {size} elements"
                )
            self._blocks[name] = block
        return block

    def order_spectrum(self) -> Counter[int]:
        """Element orders of Hol(N_p), from `aut_perms()` alone.

        For x = (A, v) and k = order(A), x^k = (I, S_A v) with the linear
        S_A = 1 + A + ... + A^(k-1), so order(x) = k |S_A v|.  S_A is built
        column by column, and the additive orders of its images are counted
        over all v at once."""
        add_rows, basis = self.add_rows, self._basis_idx
        order_tab = bytes(self.orders) + self._pad
        values = set(self.orders)
        out: Counter[int] = Counter()
        for a in self.aut_perms():
            k = self.order(a)
            cols = []
            for cur in basis:
                acc = 0
                for _ in range(k):
                    acc = add_rows[acc][cur]
                    cur = a[cur]
                cols.append(acc)
            orders = self.linear_perm(cols).translate(order_tab)
            for c in values:
                count = orders.count(c)
                if count:
                    out[k * c] += count
        return out

    def hol_elements(self, aut_list: list[bytes]) -> list[bytes]:
        return [self.hol_perm(a, v) for a in aut_list for v in range(self.m)]

    def cyclic_leaders(self, aut_list: list[bytes], mx: int) -> list[bytes]:
        """The least generator, in the order of `aut_list`, of each cyclic
        <A> with order(A) | mx, for `aut_list` closed under powers.

        Each A not yet met is walked through its powers once, and the
        generators A^k, gcd(k, order(A)) = 1, are marked as met."""
        met: set[bytes] = set()
        leaders = []
        for a in aut_list:
            if a in met:
                continue
            pows = self.cycle(a)
            k = len(pows)
            met.update(pows[j] for j in range(k) if gcd(j, k) == 1)
            if mx % k == 0:
                leaders.append(a)
        return leaders

    def cycles_dividing(
        self, aut_list: list[bytes], mx: int, marking: Container[int] = ()
    ) -> Iterator[tuple[bytes, int, int, int]]:
        """(A, v, c, o) for each x = (A, v) of `hol_elements(aut_list)`, in
        that order, whose order o divides mx, c the length of its cycle
        pts = [0, v, x(v), ...] through 0.  x^k = (A^k, x^k(0)), so
        o = lcm(order(A), c).  `Pool.candidates` builds x (`hol_perm(A, v)`)
        only for the survivors it keeps.

        The generators of <x> with linear part A are the x^k = (A, pts[k mod c]),
        k a unit mod mx with k = 1 mod order(A).  A cycle whose c is in
        `marking` marks their points, and a marked v is not walked."""
        add_rows = self.add_rows
        for a in aut_list:
            order_a = self.order(a)
            if mx % order_a:
                continue
            done = bytearray(self.m)
            for v, row in enumerate(add_rows):
                if done[v]:
                    continue
                c, cur = 1, v
                while cur and c < mx:
                    c += 1
                    cur = row[a[cur]]
                if cur or mx % c:
                    continue
                if c in marking:
                    pts = [0]
                    while len(pts) < c:
                        pts.append(row[a[pts[-1]]])
                    for k in range(1, mx, order_a):
                        if gcd(k, mx) == 1:
                            done[pts[k % c]] = 1
                yield a, v, c, lcm(order_a, c)


def tile(seq, count: int):
    """`seq` repeated to `count` items: seq[i % len(seq)] for i < count."""
    reps = -(-count // len(seq))
    return seq * reps if reps * len(seq) == count else (seq * reps)[:count]


@lru_cache(maxsize=None)
def _prime_space(spec: GroupSpec) -> PrimeSpace:
    return PrimeSpace(spec)


class HolKernel:
    """Hol(N) as tuples of per-component affine byte permutations."""

    def __init__(self, group: GroupSpec):
        self.group = group
        self.primes = group.primes
        self.spaces = tuple(_prime_space(group.component(p)) for p in self.primes)
        self.n = group.order
        self.aut_size = prod(sp.aut_size for sp in self.spaces)  # |Aut(N)| = prod |Aut(N_p)|
        sizes = [sp.m for sp in self.spaces]
        self.sizes = sizes
        # a component's stride is the group's stride at its last factor
        self.strides = [group.strides[group.prime_slice(p).stop - 1] for p in self.primes]
        # combined index <-> per-component index tables
        self.split_tabs: list[list[int]] = []
        for k in range(len(sizes)):
            self.split_tabs.append([(i // self.strides[k]) % sizes[k] for i in range(self.n)])
        # element (combined residue tuple) index must agree with abelian's
        # lexicographic order: components are contiguous prime slices, so the
        # combined index is the mixed-radix mix of component indices.
        self.identity: KernelElement = tuple(sp.identity for sp in self.spaces)
        # the additive order of each combined index (coprime orders multiply)
        self.point_orders: tuple[int, ...] = tuple(map(prod, product(*(sp.orders for sp in self.spaces))))

    # -- algebra ----------------------------------------------------------------

    def compose(self, x: KernelElement, y: KernelElement) -> KernelElement:
        return tuple(map(PrimeSpace.compose, self.spaces, x, y))

    def order(self, x: KernelElement) -> int:
        return lcm(*(sp.order(a) for sp, a in zip(self.spaces, x))) if x else 1

    # the concatenated component permutations, a canonical sort key
    code = staticmethod(b"".join)

    def cycles(self, x: KernelElement, count: int, start: KernelElement | None = None) -> list[list[bytes]]:
        """Per component, `PrimeSpace.cycle(x_p, s_p, count)` for s = start
        (the identity by default): x^i s has component cycle[i % len(cycle)]
        for every i < count (`tile`)."""
        starts = self.identity if start is None else start
        return [sp.cycle(a, s, count) for sp, a, s in zip(self.spaces, x, starts)]

    def power_list(self, x: KernelElement, count: int, start: KernelElement | None = None) -> list[KernelElement]:
        """[s, x s, x^2 s, ..., x^(count-1) s] for s = start (the identity by
        default): each component's cycle, repeated."""
        return list(zip(*(tile(c, count) for c in self.cycles(x, count, start))))

    def orbit(self, cycles: list[list[bytes]], i: int, count: int) -> list[bytes]:
        """The orbit [i, x(i), ..., x^(count-1)(i)] of the combined index i,
        read off `cycles(x, count)`: per component, the bytes of the
        component indices x_p^j(i_p), one lookup per step of the cycle."""
        return [tile(bytes([c[tab[i]] for c in cycle]), count) for cycle, tab in zip(cycles, self.split_tabs)]

    def combined(self, parts: list[bytes]) -> list[int]:
        """Per-component index sequences, such as an `orbit`, as combined
        indices: (i_0 m_1 + i_1) m_2 + ..., m_p the component sizes."""
        acc = parts[0]
        for p, m in zip(parts[1:], self.sizes[1:]):
            acc = map(add, map(mul, acc, repeat(m)), p)
        return list(acc)

    def trans_index(self, x: KernelElement) -> int:
        return sum(a[0] * s for a, s in zip(x, self.strides))

    def images(self, x: KernelElement) -> tuple[int, ...]:
        """x as a permutation of the combined indices: images(x)[i] = x(i)."""
        return tuple(map(sum, product(*([v * s for v in a] for a, s in zip(x, self.strides)))))

    # -- pools ---------------------------------------------------------------------

    def aut_perm_tuple(self, aut: Aut) -> KernelElement:
        return tuple(sp.aut_perm(m) for sp, m in zip(self.spaces, aut))

    def aut_generator_tuples(self) -> list[KernelElement]:
        return [self.aut_perm_tuple(a) for a in aut_generators(self.group)]

    def hol_order(self) -> int:
        return self.n * self.aut_size

    def full_pool(self) -> Pool:
        """Every element of Hol(N), as the product of per-component pools."""
        total = self.hol_order()
        _check_scan(total, f"|Hol({self.group})| = {total} exceeds cap")
        return Pool(self.group, "full", self.spaces, [sp.aut_perms() for sp in self.spaces])

    def sylow_pool(self) -> Pool:
        """Odd components in full, 2-component restricted to N_2 x P."""
        total = prod(sp.m * (sp.sylow_size if sp.p == 2 else sp.aut_size) for sp in self.spaces)
        _check_scan(total, f"Sylow-restricted pool for {self.group} has {total} elements, cap")
        return Pool(
            self.group,
            "sylow",
            self.spaces,
            [sp.sylow_aut_perms() if sp.p == 2 else sp.aut_perms() for sp in self.spaces],
        )

    # -- conjugation -------------------------------------------------------------

    def conjugator(self, aut_tuple: KernelElement):
        """x -> a x a^{-1} acting componentwise: (a x_p a^{-1})(i) is
        (a x_p)[a^{-1}(i)], with a padded once per conjugator."""
        parts = [(a + sp._pad, sp.inverse(a), sp._pad) for sp, a in zip(self.spaces, aut_tuple)]

        def conj(x: KernelElement) -> KernelElement:
            return tuple([inv.translate(b.translate(tab) + pad) for (tab, inv, pad), b in zip(parts, x)])

        return conj


class Pool:
    """Translations times an automorphism block, per component, in product
    order: the first component outermost, then automorphisms, then
    translations.  The product is never multiplied out.  A pool is named by
    its group and method ("full" or "sylow"), and compares and hashes by that
    name, so a memo can key on it."""

    def __init__(self, group: GroupSpec, method: str, spaces: tuple[PrimeSpace, ...], auts: list[list[bytes]]):
        self.name = (group, method)
        self.spaces = spaces
        self.auts = auts

    def __eq__(self, other) -> bool:
        return isinstance(other, Pool) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __len__(self) -> int:
        return prod(sp.m * len(a) for sp, a in zip(self.spaces, self.auts))

    def __iter__(self) -> Iterator[KernelElement]:
        return product(*(sp.hol_elements(a) for sp, a in zip(self.spaces, self.auts)))

    def candidates(self, mx: int) -> Iterator[KernelElement]:
        """One generator of each cyclic <x> generated by an element of
        order mx whose orbit through 0 has mx points: the first in pool
        order among those whose first (2-part) linear part A is the least
        generator of its cyclic <A> in the block's order
        (`PrimeSpace.cyclic_leaders`).  Every such <x> has one: x^k has
        linear part A^k there, the units k mod mx reach every generator of
        <A> as order(A) | mx, and a unit power keeps the order and the orbit
        through 0.  The blocks are groups, so closed under powers.

        For x = (x_p), order(x) = lcm o_p and the orbit of 0 has lcm c_p
        points, c_p the cycle length of 0_p under x_p and c_p | o_p.  Both
        equal mx iff every o_p divides mx and lcm c_p = mx.  So each
        component is filtered alone, the later ones are multiplied out as
        survivors only, and the first (the 2-part, the largest) is streamed
        against them.  A first-component element is built as a permutation
        only once its cycle length c fits some tail, lcm(c, c_tail) = mx.

        The other generators with linear part A are x^k, k = 1 mod
        order(A): `cycles_dividing` drops their first components, marking
        every c that fits a tail (C3 x C2 x C2 has x with
        (c_2, c_3) = (3, 2)); under one x_2, the tails t^k with
        k = 1 mod order(x_2) are dropped after the first.
        """
        head = self.spaces[0]
        tails: list[tuple[KernelElement, int]] = [((), 1)]
        powers: dict[bytes, list[bytes]] = {}  # the cycle of each tail component
        for sp, auts in zip(self.spaces[1:], self.auts[1:]):
            survivors = [(sp.hol_perm(a, v), c) for a, v, c, _ in sp.cycles_dividing(auts, mx)]
            powers.update((x, sp.cycle(x)) for x, _ in survivors)
            tails = [(t + (x,), lcm(c, cx)) for t, c in tails for x, cx in survivors]
        fitting = {c: [t for t, ct in tails if lcm(c, ct) == mx] for c in range(1, mx + 1) if mx % c == 0}
        kept: dict[tuple[int, int], list[KernelElement]] = {}  # the tails under x_2, by (c, o)
        leaders = head.cyclic_leaders(self.auts[0], mx)
        for a, v, c, o in head.cycles_dividing(leaders, mx, [c for c, fits in fitting.items() if fits]):
            ts = kept.get((c, o))
            if ts is None:
                ts, dropped = kept.setdefault((c, o), []), set()
                for t in fitting[c]:
                    if t not in dropped:
                        ts.append(t)
                        dropped.update(
                            tuple(powers[y][k % len(powers[y])] for y in t)
                            for k in range(1, mx, o)
                            if gcd(k, mx) == 1
                        )
            if ts:
                x = head.hol_perm(a, v)
                for t in ts:
                    yield (x,) + t


def _check_scan(total: int, what: str) -> None:
    """CapacityError when a pool of `total` elements exceeds the scan cap."""
    cap = config.full_hol_cap()
    if total > cap:
        raise CapacityError(f"{what} {cap}", needed=total, cap=cap)


@lru_cache(maxsize=None)
def get_kernel(group: GroupSpec) -> HolKernel:
    if group.order < 2:
        raise InvalidInputError("kernel needs a nontrivial group")
    return HolKernel(group)
