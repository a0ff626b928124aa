import importlib.util
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from holobrace.abelian import make_group, parse_group
from holobrace.counts import (
    census,
    conjecture_report,
    cross_check,
    d_closed,
    d_computed,
    hgs_count,
    hgs_reduce,
    q_closed,
    q_computed,
    table1_report,
    table3_report,
    table4_report,
)
from holobrace.errors import InternalConsistencyError, InvalidInputError
from holobrace.presentations import parse_kind


def test_hgs_count_examples():
    assert hgs_count(parse_kind("q16"), make_group([2, 2, 2, 2]), 5040) == 8
    assert hgs_count(parse_kind("d8"), make_group([2, 4]), 14) == 14
    assert hgs_count(parse_kind("q8"), make_group([2, 2, 2]), 14) == 2
    assert hgs_count(parse_kind("q8"), make_group([8]), 0) == 0


def test_hgs_count_rejects_non_divisible():
    with pytest.raises(InternalConsistencyError):
        hgs_count(parse_kind("q8"), make_group([2, 2, 2]), 1)


def test_closed_forms():
    assert q_closed(8) == 7 and d_closed(8) == 7  # q(32), d(32)
    assert q_closed(4) == 9 and d_closed(4) == 7  # q(16), d(16)
    assert q_closed(3) == 2 and d_closed(3) == 3
    assert q_closed(6) == 6 and d_closed(6) == 8  # d(24) = 8
    assert q_closed(12) == 9 and d_closed(12) == 7
    assert q_closed(16) == 7 and d_closed(16) == 7
    for bad in (0, 1, 2):
        with pytest.raises(InvalidInputError):
            q_closed(bad)
        with pytest.raises(InvalidInputError):
            d_closed(bad)


def test_hgs_reduce_examples():
    assert hgs_reduce(parse_group("c3xc2xc8"), parse_kind("d48")) == 96
    assert hgs_reduce(parse_group("c3xc4"), parse_kind("q12")) == 3
    assert hgs_reduce(parse_group("c16"), parse_kind("q16")) == 4


def test_census_dispatch_methods():
    res = census(parse_group("c2xc16"), parse_kind("q32"))
    assert res.method == "structured" and (res.c, res.r) == (6, 16)
    res = census(parse_group("c2xc16"), parse_kind("q32"), method="direct")
    assert (res.c, res.r) == (6, 16)
    res = census(parse_group("[24]"), parse_kind("q24"))
    assert res.method == "reduction" and res.c == 2
    res = census(parse_group("c2xc8"), parse_kind("d16"))
    assert (res.c, res.r, res.h) == (6, 16, 32)


def test_census_cross_check_agrees():
    res = census(parse_group("c3xc2xc4"), parse_kind("q24"))
    assert (res.c, res.r) == (3, 6) and cross_check(res) is None
    res = census(parse_group("c32"), parse_kind("d32"))
    assert (res.c, res.r) == (1, 1) and cross_check(res) is None


@pytest.mark.parametrize(
    "nspec,kind,method,path",
    [
        ("c2xc4", "d8", "auto", "direct"),
        ("c2xc4", "d8", "direct", "full"),
        ("c2xc2xc2xc2", "q16", "auto", "sylow"),
        ("c2xc16", "q32", "auto", "structured"),
        ("c3xc2xc8", "q48", "auto", "reduction"),
        ("c5xc2xc4", "q40", "auto", "reduction"),  # exceptional: the s = 3 base search
        ("c2xc4xc4", "q32", "auto", "type-theorem"),
        ("c4xc16", "q64", "auto", "zero-family"),
        ("c3xc3xc4", "q36", "auto", "odd-noncyclic"),
        ("c3xc3xc4", "q36", "reduction", "reduction"),
    ],
)
def test_every_census_path_answers_with_one_type(nspec, kind, method, path):
    from holobrace.endo import aut_order
    from holobrace.regular import SearchResult

    group, k = parse_group(nspec), parse_kind(kind)
    res = census(group, k, method)
    assert isinstance(res, SearchResult) and res.method == path
    assert (res.group, res.kind) == (group, k)
    assert res.h == hgs_count(k, group, res.r)
    assert res.c == len(res.class_sizes) and sum(orbit for orbit, _ in res.class_sizes) == res.r
    assert all(orbit * stab == aut_order(group) for orbit, stab in res.class_sizes)


def test_census_takes_no_cross_check_flag():
    import inspect

    assert list(inspect.signature(census).parameters) == ["group", "kind", "method"]


def test_census_rejects_wrong_order():
    with pytest.raises(InvalidInputError):
        census(parse_group("c2xc8"), parse_kind("q8"))


def test_type_theorem_shortcut():
    # C3 x C3 of order 9: not 4 | |N|
    with pytest.raises(InvalidInputError):
        census(make_group([3, 3]), parse_kind("q8"))
    # inadmissible 2-group type: order 32 with shape C2 x C4 x C4
    res = census(make_group([2, 4, 4]), parse_kind("q32"))
    assert (res.c, res.r, res.h) == (0, 0, 0)
    assert res.method == "type-theorem"


def test_zero_family_shortcut_n6():
    res = census(make_group([4, 16]), parse_kind("q64"))
    assert (res.c, res.r) == (0, 0)
    assert res.method == "zero-family"


def test_q_d_computed_small():
    assert q_computed(4) == 2 and d_computed(4) == 2
    assert q_computed(8) == 3 and d_computed(8) == 8
    assert q_computed(12) == q_closed(3) == 2
    assert d_computed(12) == d_closed(3) == 3


def test_table1_reference_values():
    expected = [
        ("C_4", "C_4", 1, 1, 1),
        ("C_2×C_2", "C_4", 1, 3, 1),
        ("C_4", "C_2×C_2", 1, 1, 3),
        ("C_2×C_2", "C_2×C_2", 1, 1, 1),
        ("C_8", "Q_8", 1, 1, 6),
        ("C_2×C_4", "Q_8", 1, 2, 6),
        ("C_2×C_2×C_2", "Q_8", 1, 14, 2),
        ("C_8", "D_8", 1, 1, 2),
        ("C_2×C_4", "D_8", 5, 14, 14),
        ("C_2×C_2×C_2", "D_8", 2, 126, 6),
        ("C_16", "Q_16", 1, 1, 4),
        ("C_2×C_8", "Q_16", 4, 8, 16),
        ("C_4×C_4", "Q_16", 2, 48, 16),
        ("C_2×C_2×C_4", "Q_16", 1, 48, 8),
        ("C_2×C_2×C_2×C_2", "Q_16", 1, 5040, 8),
        ("C_16", "D_16", 1, 1, 4),
        ("C_2×C_8", "D_16", 6, 16, 32),
        ("C_4×C_4", "D_16", 0, 0, 0),
        ("C_2×C_2×C_4", "D_16", 0, 0, 0),
        ("C_2×C_2×C_2×C_2", "D_16", 0, 0, 0),
    ]
    rep = table1_report()
    assert list(rep.rows) == expected


def test_table3_rows_s1_and_s3():
    rep = table3_report(n_max=4, s_values=(1, 3))
    rows = {(r[0], r[2]): (r[3], r[4]) for r in rep.rows}
    # s = 1 block agrees with Table 1 c-values
    assert rows[("C_8", 1)] == (1, 1)
    assert rows[("C_2×C_4", 1)] == (1, 5)
    assert rows[("C_2×C_2×C_2", 1)] == (1, 2)
    # s = 3: the exceptional columns change
    assert rows[("C_3×C_8", 3)] == (2, 1)
    assert rows[("C_3×C_2×C_4", 3)] == (3, 5)
    assert rows[("C_3×C_2×C_2×C_2", 3)] == (1, 2)
    assert rows[("C_3×C_4", 3)] == (1, 2)
    assert rows[("C_3×C_2×C_2", 3)] == (1, 1)
    assert rows[("C_3×C_2×C_2×C_2×C_2", 3)] == (1, 0)


def test_table4_rows():
    rep = table4_report(n_max=4, s_values=(1, 3))
    rows = {(r[0], r[2]): (r[3], r[4]) for r in rep.rows}
    assert rows[("C_16", 1)] == (4, 4)
    assert rows[("C_2×C_8", 1)] == (16, 32)
    assert rows[("C_3×C_2×C_8", 3)] == (48, 96)
    assert rows[("C_3×C_4×C_4", 3)] == (48, 0)
    assert rows[("C_3×C_4", 3)] == (3, 9)
    assert rows[("C_3×C_2×C_2", 3)] == (3, 3)


def test_report_formats_are_stable():
    rep = table1_report()
    assert rep.to_text() == table1_report().to_text()
    assert rep.to_csv().splitlines()[0] == "N,G,c,r,h"
    import json

    payload = json.loads(rep.to_json())
    assert payload["schema"] == "v1"
    assert len(payload["rows"]) == 20


def test_conjecture_report_small():
    rep = conjecture_report(m_max=4)
    assert all(row[4] and row[7] for row in rep.rows)


def test_total_hgs_per_degree():
    """Per-degree totals of abelian-type Hopf-Galois structures.

    Quaternion degree 2^n: 2, 14, 52, then 9*2^{n-2} from n = 5 on;
    dihedral: 4, 22, 36, then the same 9*2^{n-2}; times s for 2^n*s.
    """
    from holobrace.presentations import QUATERNION, DIHEDRAL, TargetKind, admissible_types

    def total(n, s, family):
        out = 0
        for t in admissible_types(n):
            g = make_group((s,) + t.factors) if s > 1 else t
            out += hgs_reduce(g, TargetKind(family, n, s))
        return out

    assert total(2, 1, QUATERNION) == 2
    assert total(2, 1, DIHEDRAL) == 4
    assert total(3, 1, QUATERNION) == 14
    assert total(3, 1, DIHEDRAL) == 22
    assert total(4, 1, QUATERNION) == 52
    assert total(4, 1, DIHEDRAL) == 36
    for n in (5, 6):
        assert total(n, 1, QUATERNION) == 9 * (1 << (n - 2))
        assert total(n, 1, DIHEDRAL) == 9 * (1 << (n - 2))
    for s in (3, 5):
        assert total(3, s, QUATERNION) == 14 * s
        assert total(4, s, DIHEDRAL) == 36 * s
        assert total(5, s, QUATERNION) == 9 * 8 * s


ODD_PARTS = ((), (3,), (5,), (7,), (9,), (15,), (21,), (3, 3))


@pytest.mark.parametrize("family", ["quaternion", "dihedral"])
def test_table4_h_is_the_two_part_h_times_s(family):
    """h(N, J) = h(N_2, J_2) * s, or 0 when the odd part of N is not cyclic:
    the reduction of the paper, computed here from the 2-part's census."""
    from holobrace.counts import two_power_census
    from holobrace.presentations import TargetKind, admissible_types

    checked = 0
    for n in range(2, 7):
        for two in admissible_types(n):
            base = two_power_census(two, family).h
            for odd in ODD_PARTS:
                group = make_group(odd + two.factors)
                s = prod(odd)
                expected = base * s if len(odd) <= 1 else 0
                assert hgs_reduce(group, TargetKind(family, n, s)) == expected, (group, family)
                checked += 1
    assert checked == 160


@pytest.mark.parametrize("family", ["quaternion", "dihedral"])
def test_two_power_census_refuses_a_group_with_an_odd_part(family):
    # its own 2-group check: C3 x C4 is in no admissible list, which holds
    # 2-groups only, so without the check it would count as a type-theorem zero
    from holobrace.counts import two_power_census

    with pytest.raises(InvalidInputError, match="^C_3×C_4 is not a 2-group$"):
        two_power_census(make_group([3, 4]), family)


def test_table4_quaternion_total_n5():
    # total abelian-type HGS on a degree-32 quaternion extension: 9*2^{n-2} = 72
    rep = table4_report(n_max=5, s_values=(1,))
    n5 = [r for r in rep.rows if r[1] == 5]
    assert sum(r[3] for r in n5) == 72
    assert sum(r[4] for r in n5) == 72


def test_cross_check_runs_the_full_scan_and_the_sylow_path(monkeypatch):
    """A full-scan answer is crossed with the Sylow path, and a fault in the
    class sizes that the census reads from that path is reported with both
    paths named."""
    from dataclasses import replace

    import holobrace.counts as counts
    from holobrace.regular import search_regular

    ran = []

    def spy(group, kind, method="auto"):
        res = search_regular(group, kind, method)
        ran.append(res.method)
        return res

    monkeypatch.setattr(counts, "search_regular", spy)
    res = census(parse_group("c2xc4"), parse_kind("d8"))
    assert cross_check(res) is None
    assert (res.c, res.r, res.method) == (5, 14, "direct")
    assert ran == ["full", "sylow"]

    def broken(group, kind, method="auto"):
        res = search_regular(group, kind, method)
        return replace(res, class_sizes=res.class_sizes[1:]) if res.method == "sylow" else res

    monkeypatch.setattr(counts, "search_regular", broken)
    with pytest.raises(InternalConsistencyError, match="direct path .* sylow path"):
        cross_check(census(parse_group("c2xc4"), parse_kind("d8")))

    # Hol(C3 x C2^4) is past the scan cap: the reduction is crossed with the
    # Sylow path, whose pool of 6144 fits
    mixed = parse_group("c3xc2xc2xc2xc2")
    monkeypatch.setattr(counts, "search_regular", spy)
    ran.clear()
    res = census(mixed, parse_kind("q48"))
    assert cross_check(res) is None
    assert (res.c, res.r, res.method) == (1, 5040, "reduction")
    assert ran == ["sylow", "sylow"]  # the 2-part census, then the cross-check

    def broken_mixed(group, kind, method="auto"):
        res = search_regular(group, kind, method)
        return replace(res, class_sizes=res.class_sizes * 2) if res.group == mixed else res

    monkeypatch.setattr(counts, "search_regular", broken_mixed)
    with pytest.raises(InternalConsistencyError, match="reduction path .* sylow path"):
        cross_check(census(mixed, parse_kind("q48")))


def _benchmark_workloads():
    """perfbench/workloads.py, which imports nothing from holobrace."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_check_runs_one_search_on_the_family_pairs(monkeypatch):
    """The full scan crosses each structured family answer that fits the
    byte kernel, and C2 x C128, past it, runs no search at all."""
    import holobrace.counts as counts
    from holobrace.regular import search_regular

    ran = []

    def spy(group, kind, method="auto"):
        ran.append(method)
        return search_regular(group, kind, method)

    monkeypatch.setattr(counts, "search_regular", spy)
    for nspec, gspec in _benchmark_workloads().FAMILY_PAIRS:
        res = census(parse_group(nspec), parse_kind(gspec))
        assert res.method == "structured"
        ran.clear()
        note = cross_check(res)
        if nspec == "c2xc128":
            assert ran == [] and note.startswith("no second path for ")
        else:
            assert ran == ["full"] and note is None


_AUT_ORDER_SPY = """
import contextlib, io, sys
import holobrace.cli, holobrace.endo
sys.path.insert(0, "perfbench")
import workloads
calls, original = [], holobrace.endo.aut_order

def spy(group):
    calls.append(group)
    return original(group)

for name, module in list(sys.modules.items()):
    if name == "holobrace" or name.startswith("holobrace."):
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, spy)
for argv in workloads.CENSUS_SWEEP:
    with contextlib.redirect_stdout(io.StringIO()):
        assert holobrace.cli.main(list(argv)) == 0
print(len(calls))
"""


def test_a_census_sweep_pass_computes_aut_n_once_per_answer():
    """One cold pass of the benchmark's census-sweep ops, in a fresh
    interpreter, makes at most 150 `endo.aut_order` calls: a SearchResult
    computes |Aut(N)| once, and `h` reads it off its first class."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _AUT_ORDER_SPY], cwd=root, env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout) <= 150


def test_cross_check_compares_class_sizes(monkeypatch):
    """Two paths that agree on (c, r, h) but not on the (orbit, stabilizer)
    multiset fail the cross-check, which names both paths and both multisets."""
    from dataclasses import replace

    import holobrace.counts as counts
    from holobrace.structured import solve_family

    pair = (parse_group("c2xc16"), parse_kind("q32"))
    res = census(*pair, method="structured")
    assert (res.c, res.r) == (6, 16) and cross_check(res) is None

    def skewed(group, family):
        # still 16 subgroups in 6 classes, each orbit dividing |Aut(C2 x C16)| = 32
        return replace(solve_family(group, family), class_sizes=((1, 32), (1, 32), (2, 16), (4, 8), (4, 8), (4, 8)))

    monkeypatch.setattr(counts, "solve_family", skewed)
    with pytest.raises(InternalConsistencyError) as err:
        cross_check(census(*pair, method="structured"))
    assert str(err.value) == (
        "cross-check: the structured path gives (c=6, r=16, h=64) and (orbit, stabilizer) classes "
        "[(1, 32), (1, 32), (2, 16), (4, 8), (4, 8), (4, 8)] but the full path gives (c=6, r=16, h=64) "
        "and (orbit, stabilizer) classes [(2, 16), (2, 16), (2, 16), (2, 16), (4, 8), (4, 8)]"
    )


SYLOW_CENSUS_PAIRS = [
    ("c2xc2xc2xc2", "q16"),
    ("c3xc2xc2xc2xc2", "q48"),
    ("c3xc2xc2xc2", "d24"),
    ("c5xc2xc2xc2", "d40"),
    ("c7xc2xc2xc2", "d56"),
    ("c3xc2xc8", "q48"),
]


def test_the_sylow_path_counts_without_listing_orbits(monkeypatch):
    """census and table 1 take their Sylow-path counts from stabilizers and
    never expand an orbit there; the full scan still does."""
    import holobrace.regular as regular

    expanded = []
    real = regular._expand_orbits

    def spy(kern, seeds):
        expanded.append(kern.group)
        return real(kern, seeds)

    monkeypatch.setattr(regular, "_expand_orbits", spy)
    regular._search_cached.cache_clear()
    got = [census(parse_group(n), parse_kind(g), method="sylow") for n, g in SYLOW_CENSUS_PAIRS]
    assert [(res.c, res.r) for res in got] == [(1, 5040), (1, 5040), (2, 126), (2, 126), (2, 126), (4, 8)]
    assert expanded == []
    c2p4 = make_group([2, 2, 2, 2])
    assert census(c2p4, parse_kind("q16")).method == "sylow"
    table1_report()
    assert expanded and c2p4 not in expanded
