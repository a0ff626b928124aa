"""The benchmark's fixed workloads and the independent checks on their outputs.

Each workload is a list of CLI argument vectors that one fresh interpreter
runs in sequence through `holobrace.cli.main`.  The lists are literal so that
a change to the program cannot change what is measured.  The checks here do
not call into holobrace: they recompute what they compare against from
closed forms (Hillar-Rhea for |Aut(N)|, the dicyclic and dihedral formulas
for |Aut(G)|, the paper's q(4m)/d(4m) totals) or from files the repository
already holds (`tests/golden/table1.txt`).
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path

GOLDEN_TABLE1 = "tests/golden/table1.txt"

TABLES = [
    ["tables", "--which", "1", "--golden", GOLDEN_TABLE1],
    ["tables", "--which", "3", "--n-max", "5", "--s", "3"],
    ["tables", "--which", "4", "--n-max", "5", "--s", "5"],
]

# (N, G): the two structured families C_{2^n} and C_2 x C_{2^{n-1}}, n >= 5.
# C2xC128 is past the byte kernel's 255-element component limit, so only the
# structured path can answer it and `--cross-check` has no second path there.
FAMILY_PAIRS = [
    ("c32", "q32"), ("c32", "d32"), ("c64", "q64"), ("c64", "d64"),
    ("c2xc16", "q32"), ("c2xc16", "d32"), ("c2xc32", "q64"), ("c2xc32", "d64"),
    ("c2xc64", "q128"), ("c2xc64", "d128"), ("c2xc128", "q256"),
]
FAMILIES = [["census", "--N", n, "--G", g, "--cross-check"] for n, g in FAMILY_PAIRS]

# (N, G, expected brace count c).  c = 6 for C2xC32 is the family count; the
# two odd extensions inherit c(C2xC8, D16) = 6 from table 1 by the odd-part
# reduction (n = 4 is not an exceptional kind).
BRACE_PAIRS = [("c2xc32", "q64", 6), ("c5xc2xc8", "d80", 6), ("c7xc2xc8", "d112", 6)]
BRACES = [
    argv
    for n, g, _ in BRACE_PAIRS
    for argv in (["ybe-check", "--N", n, "--G", g], ["brace-export", "--N", n, "--G", g])
]

# Every admissible N = C_s x N_2 with 2^n = |N_2|, n in 2..5, s in {1, 3, 5, 7},
# keyed by |N|.  Left out: 2-parts C2^4 and C2^3xC4 (measured by `tables`),
# C32 and C2xC16 (measured by `families`), and every N whose Hol(N) has more
# than 2^16 elements, the default full-scan cap, because `--direct` would
# silently take the Sylow path there.
SWEEP_GROUPS = {
    4: ["c4", "c2xc2"],
    8: ["c8", "c2xc4", "c2xc2xc2"],
    12: ["c3xc4", "c3xc2xc2"],
    16: ["c16", "c2xc8", "c4xc4", "c2xc2xc4"],
    20: ["c5xc4", "c5xc2xc2"],
    24: ["c3xc8", "c3xc2xc4", "c3xc2xc2xc2"],
    28: ["c7xc4", "c7xc2xc2"],
    32: ["c4xc8", "c2xc2xc8"],
    40: ["c5xc8", "c5xc2xc4", "c5xc2xc2xc2"],
    48: ["c3xc16", "c3xc2xc8", "c3xc4xc4", "c3xc2xc2xc4"],
    56: ["c7xc8", "c7xc2xc4", "c7xc2xc2xc2"],
    80: ["c5xc16", "c5xc2xc8", "c5xc4xc4", "c5xc2xc2xc4"],
    96: ["c3xc4xc8"],
    112: ["c7xc16", "c7xc2xc8", "c7xc4xc4"],
}
# Orders 4m for which SWEEP_GROUPS lists every admissible N, m >= 3.
COMPLETE_ORDERS = (12, 20, 24, 28, 40, 56)
CENSUS_SWEEP = [
    ["census", "--N", n, "--G", f"{fam}{order}"] + extra
    for order, groups in SWEEP_GROUPS.items()
    for n in groups
    for fam in ("q", "d")
    for extra in ([], ["--direct"])
]

WORKLOADS = {
    "tables": TABLES,
    "families": FAMILIES,
    "braces": BRACES,
    "census-sweep": CENSUS_SWEEP,
}


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


# -- independent references -----------------------------------------------------


def _phi(k: int) -> int:
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


def _factor(k: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while k > 1:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1
    return out


def _cyclic_orders(spec: str) -> list[int]:
    return [int(part) for part in spec.lower().replace("c", "").split("x")]


def aut_abelian(spec: str) -> int:
    """|Aut(N)| for N = C_{a1} x ... by Hillar-Rhea (Amer. Math. Monthly 114, 2007)."""
    exps: dict[int, list[int]] = {}
    for q in _cyclic_orders(spec):
        for p, e in _factor(q).items():
            exps.setdefault(p, []).append(e)
    total = 1
    for p, es in exps.items():
        es.sort()
        r = len(es)
        d = [max(l for l in range(1, r + 1) if es[l - 1] == es[k]) for k in range(r)]
        c = [min(l for l in range(1, r + 1) if es[l - 1] == es[k]) for k in range(r)]
        for k in range(r):
            total *= p ** d[k] - p**k
            total *= p ** (es[k] * (r - d[k]))
            total *= p ** ((es[k] - 1) * (r - c[k] + 1))
    return total


def aut_target(target: str) -> int:
    """|Aut(G)| for G = q<order> (dicyclic) or d<order> (dihedral)."""
    fam, order = target[0].lower(), int(target[1:])
    if fam == "q":
        if order == 4:  # q4 is C_4
            return 2
        if order == 8:
            return 24
        m = order // 4
        return 2 * m * _phi(2 * m)
    if order == 4:  # d4 is C_2 x C_2
        return 6
    k = order // 2
    return k * _phi(k)


def q_closed(m: int) -> int:
    """Quaternion braces of order 4m, m >= 3, as the paper states them."""
    if m % 2:
        return 2
    if m % 4 == 2:
        return 6
    return 9 if m % 8 == 4 else 7


def d_closed(m: int) -> int:
    """Dihedral braces of order 4m, m >= 3, as the paper states them."""
    if m % 2:
        return 3
    return 8 if m % 4 == 2 else 7


# -- per-workload checks ---------------------------------------------------------


def _census_problems(argv: list[str], data: dict) -> list[str]:
    key = op_key(argv)
    n, g = argv[2], argv[4]
    out = []
    orbits = [cls["orbit"] for cls in data["classes"]]
    if len(orbits) != data["c"] or sum(orbits) != data["r"]:
        out.append(f"{key}: classes do not add up to (c, r) = ({data['c']}, {data['r']})")
    num = aut_target(g) * data["r"]
    if num % aut_abelian(n) or data["h"] != num // aut_abelian(n):
        out.append(f"{key}: h = {data['h']} but |Aut(G)| r / |Aut(N)| = {num}/{aut_abelian(n)}")
    return out


def check(workload: str, outputs: dict[str, str], root: Path) -> list[str]:
    """Problems found in one pass's outputs (op key -> stdout); empty if none."""
    problems: list[str] = []
    if workload == "tables":
        golden = (root / GOLDEN_TABLE1).read_text(encoding="utf-8")
        if outputs[op_key(TABLES[0])] != golden:
            problems.append("table 1 differs from " + GOLDEN_TABLE1)
        problems += _family_rows_problems(outputs[op_key(TABLES[1])], outputs[op_key(TABLES[2])])
    elif workload == "families":
        for argv in FAMILIES:
            data = json.loads(outputs[op_key(argv)])
            problems += _census_problems(argv, data)
            want = (1, 1) if "x" not in argv[2] else (6, 16)
            if (data["c"], data["r"]) != want:
                problems.append(f"{op_key(argv)}: (c, r) = ({data['c']}, {data['r']}), want {want}")
    elif workload == "braces":
        for n, g, c in BRACE_PAIRS:
            ybe = json.loads(outputs[op_key(["ybe-check", "--N", n, "--G", g])])
            export = json.loads(outputs[op_key(["brace-export", "--N", n, "--G", g])])
            if ybe["braces_checked"] != c or not (ybe["braid"] and ybe["involutive"]):
                problems.append(f"ybe-check {n} {g}: {ybe['braces_checked']} braces checked, want {c}")
            if len(export["braces"]) != c:
                problems.append(f"brace-export {n} {g}: {len(export['braces'])} braces, want {c}")
    elif workload == "census-sweep":
        totals: dict[tuple[int, str, bool], int] = {}
        by_pair: dict[tuple[str, str], list] = {}
        for argv in CENSUS_SWEEP:
            data = json.loads(outputs[op_key(argv)])
            problems += _census_problems(argv, data)
            direct = "--direct" in argv
            tkey = (int(argv[4][1:]), argv[4][0], direct)
            totals[tkey] = totals.get(tkey, 0) + data["c"]
            by_pair.setdefault((argv[2], argv[4]), []).append((data["c"], data["r"], data["h"]))
        for pair, answers in by_pair.items():
            if answers[0] != answers[1]:
                problems.append(f"census {pair}: auto gives {answers[0]}, --direct gives {answers[1]}")
        for order in COMPLETE_ORDERS:
            m = order // 4
            for fam, want in (("q", q_closed(m)), ("d", d_closed(m))):
                for direct in (False, True):
                    got = totals[(order, fam, direct)]
                    if got != want:
                        problems.append(f"sum of c for {fam}{order}: {got}, closed form {want}")
    return problems


def _family_rows_problems(table3: str, table4: str) -> list[str]:
    """Table rows with n = 5, whose 2-part is a structured family.

    Table 3 must carry (c_q, c_d) = (1, 1) for C_32 and (6, 6) for C_2xC_16;
    table 4 must carry h = s |Aut(G_2)| r / |Aut(N_2)| with r = 1 or 16.
    """
    out = []
    for line in table3.splitlines()[3:]:
        cells = line.split()
        if cells[1] != "5":
            continue
        want = ["6", "6"] if cells[0].endswith("C_2×C_16") else ["1", "1"]
        if cells[3:5] != want:
            out.append(f"table 3 row {cells[0]}: (c_q, c_d) = {cells[3:5]}, want {want}")
    for line in table4.splitlines()[3:]:
        cells = line.split()
        if cells[1] != "5":
            continue
        two_part, r = ("c2xc16", 16) if cells[0].endswith("C_2×C_16") else ("c32", 1)
        s = int(cells[2])
        want = [str(s * aut_target(fam + "32") * r // aut_abelian(two_part)) for fam in "qd"]
        if cells[3:5] != want:
            out.append(f"table 4 row {cells[0]}: (h_q, h_d) = {cells[3:5]}, want {want}")
    return out
