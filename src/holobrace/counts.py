"""Census dispatch, Hopf-Galois structure counts, and table generation.

The headline quantities for a pair (N, G):
  c = Aut(N)-conjugacy classes of regular G-subgroups (brace count)
  r = total regular G-subgroups of Hol(N)
  h = |Aut(G)| * r / |Aut(N)|   (Hopf-Galois structures of type N)
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

from .abelian import GroupSpec, make_group, sylow_decompose
from .errors import InternalConsistencyError, InvalidInputError
from .oddpart import reduce_counts
from .presentations import (
    DIHEDRAL,
    QUATERNION,
    TargetKind,
    _kind_of_order,
    admissible_types,
    family_types,
)
# hgs_count is defined beside SearchResult.h and kept importable from here
from .regular import SearchResult, hgs_count, scan_refusal, search_regular
from .structured import solve_family


def q_closed(m: int) -> int:
    """Braces of order 4m with generalized quaternion multiplicative group."""
    if m < 3:
        raise InvalidInputError("closed form holds for m >= 3")
    if m % 2:
        return 2
    if m % 4 == 2:
        return 6
    if m % 8 == 4:
        return 9
    return 7


def d_closed(m: int) -> int:
    """Braces of order 4m with dihedral multiplicative group."""
    if m < 3:
        raise InvalidInputError("closed form holds for m >= 3")
    if m % 2:
        return 3
    if m % 4 == 2:
        return 8
    return 7


# -- dispatch -------------------------------------------------------------------


def two_power_census(group: GroupSpec, family: str) -> SearchResult:
    """Complete census for a 2-group: search, family solver, or theorem zero.

    Types outside the admissible list, and admissible non-family types with
    n >= 6, are zero by the nonexistence results (search-verified at n = 5,
    where scanning is still cheap).  A search that scanned all of Hol(N)
    reports "direct", one that took the Sylow path "sylow".
    """
    n = group.two_adic
    if group.odd_order != 1:
        raise InvalidInputError(f"{group} is not a 2-group")
    kind = TargetKind(family, n, 1)
    if n >= 5 and group in family_types(n):
        return solve_family(group, family)
    if group not in admissible_types(n):
        return SearchResult.from_orbits(group, kind, (), "type-theorem")
    if n >= 6:
        return SearchResult.from_orbits(group, kind, (), "zero-family")
    res = search_regular(group, kind)
    return res if res.method == "sylow" else replace(res, method="direct")


def census(group: GroupSpec, kind: TargetKind, method: str = "auto") -> SearchResult:
    """(c, r, h) for the pair (N, kind), choosing the cheapest sound path.

    method: auto | direct | sylow | structured | reduction; direct is the
    full scan of Hol(N), refused past its cap, never the Sylow path.
    `cross_check` runs a second path on the answer.
    """
    if kind.order != group.order:
        raise InvalidInputError(
            f"target {kind.label()} has order {kind.order} but |{group}| = {group.order}"
        )
    if group.two_adic < 2:
        raise InvalidInputError("quaternion/dihedral targets need 4 | |N|")
    odd, _ = sylow_decompose(group)
    if method in ("direct", "sylow"):
        return search_regular(group, kind, "full" if method == "direct" else "sylow")
    if method == "structured":
        return solve_family(group, kind.family)
    if method == "reduction":
        return reduce_counts(group, kind)
    if method == "auto":
        if odd.order == 1:
            return two_power_census(group, kind.family)
        if not odd.is_cyclic():
            return SearchResult.from_orbits(group, kind, (), "odd-noncyclic")
        return reduce_counts(group, kind)
    raise InvalidInputError(f"unknown census method {method!r}")


def cross_check(result: SearchResult) -> str | None:
    """Run a second path on the pair of a census answer: the full scan,
    else the Sylow path, skipping the search that gave the answer (a
    "direct" answer is the full scan) and any that a budget refuses.  The
    second path must agree on (c, r, h) and on the multiset of (orbit,
    stabilizer) classes, or InternalConsistencyError names both.  Returns
    None once one has run, and otherwise the reason each search was skipped.

    The second path reuses no memo entry of the first, but the full scan
    and the Sylow path run the same code of `Pool.candidates`,
    `regular._x_scan` and `regular._build_y`, so a fault there can pass both.
    """
    group, kind = result.group, result.kind
    answered = "full" if result.method == "direct" else result.method
    reasons = []
    # probe, then run: a fault inside a search is never reported as a budget
    for path, label in (("full", "full scan"), ("sylow", "Sylow path")):
        if path == answered:
            reasons.append(f"the {label} gave the answer")
        elif (refusal := scan_refusal(group, path)) is not None:
            reasons.append(f"the {label}: {refusal.describe()}")
        else:
            other = search_regular(group, kind, path)
            said = [f"(c={x.c}, r={x.r}, h={x.h}) and (orbit, stabilizer) classes {sorted(x.class_sizes)}" for x in (result, other)]
            if said[0] != said[1]:
                raise InternalConsistencyError(
                    f"cross-check: the {result.method} path gives {said[0]} but the {other.method} path gives {said[1]}"
                )
            return None
    return f"no second path for ({group}, {kind.display_name()}); " + "; ".join(reasons)


def hgs_reduce(group: GroupSpec, kind: TargetKind) -> int:
    """h(N, J) of table 4, read off the census of the pair; it equals
    h(N_2, J_2) * s, and 0 when the odd part is not cyclic."""
    return census(group, kind).h


def q_computed(order: int) -> int:
    """q(order) as the sum of per-type brace counts over admissible N."""
    return _family_total(order, QUATERNION)


def d_computed(order: int) -> int:
    return _family_total(order, DIHEDRAL)


def _family_total(order: int, family: str) -> int:
    kind = _kind_of_order(family, order)
    total = 0
    for two_type in admissible_types(kind.n):
        group = make_group((kind.s,) + two_type.factors) if kind.s > 1 else two_type
        total += census(group, kind).c
    return total


# -- tables ------------------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_text(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(str(cell)))
        lines = [self.title]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns)).rstrip()
        lines.append(header)
        lines.append("-" * max(len(header), 8))
        for row in self.rows:
            lines.append(
                "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "schema": "v1",
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


_TABLE1_PAIRS = [(2, QUATERNION), (2, DIHEDRAL), (3, QUATERNION), (3, DIHEDRAL), (4, QUATERNION), (4, DIHEDRAL)]


def table1_report() -> CountReport:
    """Braces, regular subgroups and HGS counts for orders 4, 8, 16."""
    rows = []
    for n, family in _TABLE1_PAIRS:
        kind = TargetKind(family, n, 1)
        for group in admissible_types(n):
            res = census(group, kind)
            rows.append((group.display_name(), kind.display_name(), res.c, res.r, res.h))
    return CountReport(
        "Braces c, regular subgroups r, Hopf-Galois structures h (orders 4, 8, 16)",
        ("N", "G", "c", "r", "h"),
        tuple(rows),
    )


def _family_rows(n_max: int, s_values, cell) -> tuple[tuple, ...]:
    """(N, n, s, cell(N, quaternion kind), cell(N, dihedral kind)) for each
    additive type N that can occur, by s, then n: past n = 4 only the two
    families."""
    rows = []
    for s in s_values:
        for n in range(2, n_max + 1):
            for two_type in family_types(n) if n >= 5 else admissible_types(n):
                group = make_group((s,) + two_type.factors) if s > 1 else two_type
                cells = [cell(group, TargetKind(family, n, s)) for family in (QUATERNION, DIHEDRAL)]
                rows.append((group.display_name(), n, s, *cells))
    return tuple(rows)


def table3_report(n_max: int = 5, s_values=(1, 3)) -> CountReport:
    """Brace counts per additive group, one row per possible type."""
    return CountReport(
        "Isomorphism classes of quaternion and dihedral braces per additive group",
        ("N", "n", "s", "quaternion braces", "dihedral braces"),
        _family_rows(n_max, s_values, lambda group, kind: census(group, kind).c),
    )


def table4_report(n_max: int = 5, s_values=(1, 3)) -> CountReport:
    """Hopf-Galois structure counts per abelian type."""
    return CountReport(
        "Hopf-Galois structures of each abelian type on quaternion/dihedral extensions",
        ("N", "n", "s", "quaternion", "dihedral"),
        _family_rows(n_max, s_values, hgs_reduce),
    )


def conjecture_report(m_max: int = 8) -> CountReport:
    """Closed forms vs computed censuses for q(4m), d(4m)."""
    rows = []
    for m in range(3, m_max + 1):
        order = 4 * m
        qc, qv = q_closed(m), q_computed(order)
        dc, dv = d_closed(m), d_computed(order)
        rows.append((m, order, qc, qv, qc == qv, dc, dv, dc == dv))
    return CountReport(
        "Closed-form vs computed brace counts",
        ("m", "4m", "q closed", "q computed", "q ok", "d closed", "d computed", "d ok"),
        tuple(rows),
    )
