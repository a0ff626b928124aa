import hashlib
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from holobrace.abelian import make_group
from holobrace.cli import EXIT_CAPACITY, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

GOLDEN = Path(__file__).parent / "golden" / "table1.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--N", "c2xc8", "--G", "d16")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "v1"
    assert (payload["c"], payload["r"], payload["h"]) == (6, 16, 32)
    assert sum(cls["orbit"] for cls in payload["classes"]) == 16


def test_census_structured_and_reduction_flags(capsys):
    code, out, _ = run(capsys, "census", "--N", "c2xc16", "--G", "q32", "--structured")
    assert code == EXIT_OK and json.loads(out)["c"] == 6
    code, out, _ = run(
        capsys, "census", "--N", "c3xc2xc8", "--G", "q48", "--via-reduction", "--cross-check"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["method"] == "reduction"
    assert payload["c"] == 4


def test_census_deterministic(capsys):
    a = run(capsys, "census", "--N", "c2xc4", "--G", "d8")
    b = run(capsys, "census", "--N", "c2xc4", "--G", "d8")
    assert a == b


def test_spectrum(capsys, tmp_path):
    csv_path = tmp_path / "spec.csv"
    aut_path = tmp_path / "aut.json"
    code, out, _ = run(
        capsys,
        "spectrum", "--N", "c4xc8",
        "--csv", str(csv_path), "--dump-aut", str(aut_path),
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_order"] == 8
    assert "16" not in payload["orders"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "order,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 4096
    dumped = json.loads(aut_path.read_text())
    assert dumped["schema"] == "v1"
    first = dumped["blocks"][0][0]
    assert set(first) == {"p", "exponents", "rows"}


def test_tables_golden(capsys):
    code, out, _ = run(capsys, "tables", "--which", "1", "--golden", str(GOLDEN))
    assert code == EXIT_OK
    assert out == GOLDEN.read_text()


def test_tables_golden_mismatch(capsys, tmp_path):
    tampered = tmp_path / "bad.txt"
    tampered.write_text(GOLDEN.read_text().replace("5040", "5041"))
    code, _, err = run(capsys, "tables", "--which", "1", "--golden", str(tampered))
    assert code == EXIT_MISMATCH
    assert "mismatch" in err


def test_tables_formats(capsys):
    code, out, _ = run(capsys, "tables", "--which", "4", "--n-max", "3", "--s", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N,n,s,quaternion,dihedral"
    code, out, _ = run(capsys, "tables", "--which", "3", "--n-max", "3", "--s", "3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == "v1"


def test_verify_conjecture(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--m-max", "4")
    assert code == EXIT_OK
    assert "True" in out


def test_brace_export_and_ybe(capsys, tmp_path):
    out_path = tmp_path / "braces.json"
    code, out, _ = run(capsys, "brace-export", "--N", "c8", "--G", "q8", "--out", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert len(payload["braces"]) == 1
    assert len(payload["braces"][0]["circ"]) == 8
    code, out, _ = run(capsys, "ybe-check", "--N", "c2xc4", "--G", "d8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["braces_checked"] == 5
    assert payload["involutive"] and payload["braid"]


def test_brace_export_text_is_one_dump_of_the_payload(capsys, tmp_path):
    from holobrace.abelian import parse_group
    from holobrace.brace import brace_from_subgroup
    from holobrace.presentations import parse_kind
    from holobrace.regular import list_regular

    g, k = parse_group("c2xc8"), parse_kind("d16")
    reps = [cls.representative for cls in list_regular(g, k)[1]]
    payload = {
        "schema": "v1",
        "N": g.display_name(),
        "G": k.display_name(),
        "braces": [brace_from_subgroup(rep).to_json() for rep in reps],
    }
    want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, "brace-export", "--N", "c2xc8", "--G", "d16")
    assert (code, out) == (EXIT_OK, want)
    out_path = tmp_path / "braces.json"
    code, out, _ = run(capsys, "brace-export", "--N", "c2xc8", "--G", "d16", "--out", str(out_path))
    assert code == EXIT_OK and json.loads(out)["count"] == len(reps) == 6
    assert out_path.read_text() == want


def test_brace_export_on_the_sylow_path_is_pinned(capsys):
    # C2^4 takes the Sylow path; its class representative is listed from the
    # orbit on demand and must export the bytes it did when every search
    # listed its orbits
    code, out, _ = run(capsys, "brace-export", "--N", "c2xc2xc2xc2", "--G", "q16")
    assert code == EXIT_OK
    digest = "c73a456aaf214326e43f06a3ff0f1a2b652321e3bf8f32d86f3eb8dc428bc6c5"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_each_brace_op_lists_once_and_a_census_never(capsys, monkeypatch):
    # ybe-check and brace-export list the subgroups once per op for their
    # class representatives, on the full scan and on the Sylow path; a
    # census answers from r and the class sizes alone
    import holobrace.cli as cli
    import holobrace.regular as regular

    listed = []
    real = regular.list_regular

    def spy(group, kind, method="auto"):
        listed.append(method)
        return real(group, kind, method)

    monkeypatch.setattr(cli, "list_regular", spy)
    monkeypatch.setattr(regular, "list_regular", spy)
    for nspec, kind in (("c2xc4", "d8"), ("c2xc2xc2xc2", "q16")):
        pair = ("--N", nspec, "--G", kind)
        for argv in (("ybe-check", *pair), ("brace-export", *pair)):
            listed.clear()
            assert run(capsys, *argv)[0] == EXIT_OK
            assert listed == ["auto"], argv
        listed.clear()
        for argv in (("census", *pair), ("census", *pair, "--cross-check"), ("census", *pair, "--sylow")):
            assert run(capsys, *argv)[0] == EXIT_OK
        assert listed == []


def test_cached_parser_keeps_nothing_between_calls(capsys):
    from holobrace.cli import build_parser

    parser = build_parser()
    assert build_parser() is parser
    census = ["census", "--N", "c2xc8", "--G", "d16"]
    code, out, _ = run(capsys, *census, "--sylow")
    assert code == EXIT_OK and json.loads(out)["method"] == "sylow"
    assert parser.parse_args(census + ["--sylow"]).method == "sylow"
    assert parser.parse_args(census).method == "auto"
    code, out, _ = run(capsys, *census)
    assert code == EXIT_OK and json.loads(out)["method"] != "sylow"
    code, out, err = run(capsys, *census, "--sylow", "--direct")
    assert (code, out) == (EXIT_USAGE, "") and "not allowed with" in err
    code, out, err = run(capsys, "census", "--N", "c2xc8")
    assert (code, out) == (EXIT_USAGE, "") and "--G" in err
    code, again, err = run(capsys, *census, "--sylow")
    assert (code, err) == (EXIT_OK, "") and json.loads(again)["method"] == "sylow"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "census", "--N", "c2xc8")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "census", "--N", "notagroup", "--G", "q8")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "census", "--N", "c2xc8", "--G", "q8")
    assert code == EXIT_USAGE  # order mismatch is an input error
    for target in ("q0", "d0", "d00"):  # an order-0 target must fail, not loop
        code, out, err = run(capsys, "census", "--N", "c4", "--G", target)
        assert (code, out) == (EXIT_USAGE, "") and "not positive" in err
    # --structured outside the closed-form families is an input error, like
    # --structured on an odd group or --via-reduction on a 2-group
    for n, g in (("c4xc4", "q16"), ("c2xc2", "q4"), ("c3xc4", "q12")):
        code, out, err = run(capsys, "census", "--N", n, "--G", g, "--structured")
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("invalid input: ")
    assert err == "invalid input: C_3×C_4 is not a 2-group\n"  # the family solver's own refusal


@pytest.mark.parametrize(
    "argv,path",
    [
        (["brace-export", "--N", "c8", "--G", "q8", "--out", "{missing}/x.json"], "{missing}/x.json"),
        (["tables", "--which", "1", "--golden", "{missing}/g.txt"], "{missing}/g.txt"),
        (["tables", "--which", "1", "--golden", "{dir}"], "{dir}"),
        (["spectrum", "--N", "c2xc4", "--csv", "{missing}/s.csv"], "{missing}/s.csv"),
        (["spectrum", "--N", "c2xc4", "--dump-aut", "{dir}"], "{dir}"),
    ],
)
def test_unusable_file_arguments_are_input_errors(capsys, tmp_path, argv, path):
    # a file argument that cannot be opened is reported, not raised
    names = {"missing": tmp_path / "missing", "dir": tmp_path}
    code, _, err = run(capsys, *(a.format(**names) for a in argv))
    assert code == EXIT_USAGE
    assert err.startswith(f"invalid input: {path.format(**names)}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-conjecture", "--m-max", "2"],
        ["verify-conjecture", "--m-max", "0"],
        ["tables", "--which", "3", "--n-max", "1"],
        ["tables", "--which", "4", "--n-max", "-3"],
    ],
)
def test_runs_that_would_check_nothing_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage error: {argv[-2]} {argv[-1]} ")


@pytest.mark.parametrize("flags", [("--n-max", "9"), ("--s", "7"), ("--n-max", "5", "--s", "3")])
def test_table1_refuses_range_flags(capsys, flags):
    # table 1 has fixed rows: a range flag would be ignored, so it is refused
    code, out, err = run(capsys, "tables", "--which", "1", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage error: {flags[0]} {flags[1]} ")


@pytest.mark.parametrize("which", ["3", "4"])
@pytest.mark.parametrize("s", ["2", "0", "-3"])
def test_an_s_that_is_no_odd_part_names_the_flag(capsys, which, s):
    # n = 2 is a row the table would print, not a value the user chose
    code, out, err = run(capsys, "tables", "--which", which, "--n-max", "3", "--s", s)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage error: --s {s} ") and "n=" not in err


def test_table_range_defaults_still_apply(capsys):
    explicit = run(capsys, "tables", "--which", "4", "--n-max", "3", "--s", "3", "--format", "csv")
    assert run(capsys, "tables", "--which", "4", "--n-max", "3", "--format", "csv") == explicit
    assert explicit[0] == EXIT_OK
    code, out, err = run(capsys, "tables", "--which", "3", "--s", "5", "--n-max", "1")
    assert (code, out) == (EXIT_USAGE, "") and err.startswith("usage error: --n-max 1 ")


@pytest.mark.parametrize(
    "flags", [("--direct", "--sylow"), ("--structured", "--via-reduction"), ("--sylow", "--structured")]
)
def test_census_method_flags_are_exclusive(capsys, flags):
    code, out, err = run(capsys, "census", "--N", "c2xc16", "--G", "q32", *flags)
    assert code == EXIT_USAGE and out == ""
    assert "not allowed with" in err


def test_census_method_flags_name_one_method():
    from holobrace.cli import build_parser

    base = ["census", "--N", "c2xc16", "--G", "q32", "--cross-check"]
    methods = {
        (): "auto",
        ("--structured",): "structured",
        ("--via-reduction",): "reduction",
        ("--direct",): "direct",
        ("--sylow",): "sylow",
    }
    for flags, method in methods.items():
        args = build_parser().parse_args(base + list(flags))
        assert (args.method, args.cross_check) == (method, True)


def test_capacity_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "64")
    # C4 x C4: |Hol| = 1536 > 64 and the Sylow pool (16 * 64 = 1024) also exceeds it
    code, _, err = run(capsys, "census", "--N", "c4xc4", "--G", "q16", "--direct")
    assert code == EXIT_CAPACITY
    assert "capacity" in err.lower() or "cap" in err


def test_capacity_error_details_on_stderr(capsys, monkeypatch):
    import holobrace.cli as cli
    from holobrace.errors import CapacityError

    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "64")
    code, out, err = run(capsys, "census", "--N", "c4xc4", "--G", "q16", "--direct")
    assert code == EXIT_CAPACITY and out == ""
    assert err.startswith("capacity exceeded: ") and err.endswith(", cap 64)\n")
    assert "(needed " in err

    def refuse(*args, **kwargs):
        raise CapacityError("no sizes known")

    monkeypatch.setattr(cli, "census", refuse)
    code, out, err = run(capsys, "census", "--N", "c2xc4", "--G", "d8")
    assert (code, out, err) == (EXIT_CAPACITY, "", "capacity exceeded: no sizes known\n")


def test_kernel_component_limit_names_its_size(capsys):
    # C256 is one 2-component of 256 elements, past the bytes kernel's 255
    code, out, err = run(capsys, "census", "--N", "c256", "--G", "q256", "--direct")
    assert code == EXIT_CAPACITY and out == ""
    assert err.startswith("capacity exceeded: ") and err.endswith("(needed 256, cap 255)\n")


def test_direct_forces_the_full_scan(capsys, monkeypatch):
    # --direct never falls back to the Sylow path: |Hol(C2^4)| = 322560 is
    # past the default scan cap, so the forced scan is refused, although the
    # Sylow path (the default for this pair) answers
    monkeypatch.delenv("HOLOBRACE_HOL_CAP", raising=False)
    pair = ("--N", "c2xc2xc2xc2", "--G", "q16")
    code, out, err = run(capsys, "census", *pair, "--direct")
    assert code == EXIT_CAPACITY and out == ""
    assert err.startswith("capacity exceeded: ") and err.endswith("(needed 322560, cap 65536)\n")
    code, out, _ = run(capsys, "census", *pair)
    assert code == EXIT_OK and json.loads(out)["method"] == "sylow"


@pytest.mark.parametrize("flags", [(), ("--sylow",)])
def test_budgets_fire_after_the_x_scan_memo_is_filled(capsys, monkeypatch, flags):
    # the quaternion search fills the X scan of C2 x C2 x C8 that the
    # dihedral search shares; the pools' budgets are still checked first,
    # whether the lowered cap moves the search to the Sylow path or not
    from holobrace.regular import _search_cached, _x_scan

    _search_cached.cache_clear()
    _x_scan.cache_clear()
    code, _, _ = run(capsys, "census", "--N", "c2xc2xc8", "--G", "q32", *flags)
    assert code == EXIT_OK and _x_scan.cache_info().currsize == 1
    monkeypatch.setenv("HOLOBRACE_HOL_CAP", "100")  # |Hol| = 12288, Sylow pool 4096
    code, out, err = run(capsys, "census", "--N", "c2xc2xc8", "--G", "d32", *flags)
    assert code == EXIT_CAPACITY and out == ""
    assert err.startswith("capacity exceeded: ") and err.endswith("(needed 4096, cap 100)\n")
    monkeypatch.delenv("HOLOBRACE_HOL_CAP")
    code, _, _ = run(capsys, "census", "--N", "c2xc2xc8", "--G", "d32", *flags)
    assert code == EXIT_OK and _x_scan.cache_info().hits == 1


@pytest.mark.parametrize(
    "nspec,kind,full,sylow,flags,env",
    [
        # neither pool fits the byte kernel: only the family solver answers
        ("c2xc128", "q256", "(needed 256, cap 255)", "(needed 256, cap 255)", (), {}),
        # Hol(C2^4) is past the scan cap, and the Sylow path gave the answer
        ("c2xc2xc2xc2", "q16", "(needed 322560, cap 65536)", "gave the answer", (), {}),
        # |Hol(C2^3)| = 1344 fits the scan cap, but the block of 168
        # automorphisms does not fit HOLOBRACE_CAP, which only the full scan needs
        ("c2xc2xc2", "d8", "(needed 168, cap 100)", "gave the answer", ("--sylow",), {"HOLOBRACE_CAP": "100"}),
    ],
)
def test_a_cross_check_without_a_second_path_says_why(capsys, monkeypatch, nspec, kind, full, sylow, flags, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, plain, err = run(capsys, "census", "--N", nspec, "--G", kind, *flags)
    assert (code, err) == (EXIT_OK, "")
    code, out, err = run(capsys, "census", "--N", nspec, "--G", kind, *flags, "--cross-check")
    assert code == EXIT_OK and out == plain
    assert err.startswith("cross-check: no second path for ") and err.count("\n") == 1
    full_part, sylow_part = err.rstrip().split("; ")[1:]
    assert full_part.startswith("the full scan: ") and full_part.endswith(full)
    assert sylow_part.startswith("the Sylow path") and sylow_part.endswith(sylow)


def _readme_cli_lines() -> list[str]:
    """The `holobrace ...` lines of the code block under README's "## CLI"."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("holobrace ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_every_readme_cli_line_runs(capsys, monkeypatch, tmp_path, line):
    # files the lines write land in a temp dir; the golden file is the repo's
    monkeypatch.chdir(tmp_path)
    argv = [str(GOLDEN) if arg == "tests/golden/table1.txt" else arg for arg in shlex.split(line)[1:]]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    if "c2xc128" in argv:
        assert err.startswith("cross-check: no second path for ")


def test_a_cross_check_with_a_second_path_writes_no_stderr(capsys):
    code, _, err = run(capsys, "census", "--N", "c32", "--G", "q32", "--cross-check")
    assert (code, err) == (EXIT_OK, "")


def test_cyclic_family_budget_exit_code(capsys, monkeypatch):
    # no budget bounds the family solvers: C64 D64 answers under a cap of 1,
    # and C_{2^22}, once refused at 2^22 points, under the default cap
    monkeypatch.setenv("HOLOBRACE_CAP", "1")
    code, out, _ = run(capsys, "census", "--N", "c64", "--G", "d64")
    assert code == EXIT_OK and (json.loads(out)["c"], json.loads(out)["r"]) == (1, 1)
    monkeypatch.delenv("HOLOBRACE_CAP")
    code, out, _ = run(capsys, "census", "--N", "c4194304", "--G", "d4194304")
    assert code == EXIT_OK and (json.loads(out)["c"], json.loads(out)["r"]) == (1, 1)


def test_cached_census_still_meets_a_lowered_budget(capsys, monkeypatch):
    # C2 x C8 is the rank-2 family type below the solver's range, so the
    # search answers it, over the 16 automorphisms of its block
    code, out, _ = run(capsys, "census", "--N", "c2xc8", "--G", "d16")
    assert code == EXIT_OK and json.loads(out)["c"] == 6
    monkeypatch.setenv("HOLOBRACE_CAP", "15")
    code, out, err = run(capsys, "census", "--N", "c2xc8", "--G", "d16")
    assert code == EXIT_CAPACITY and out == ""
    assert err.endswith("(needed 16, cap 15)\n")


def test_warm_search_still_meets_a_lowered_block_budget(capsys, monkeypatch):
    # Aut(C2^3) = GL(3, 2) has 168 elements; every path over the warm search
    # checks that block again
    pair = ("--N", "c2xc2xc2", "--G", "d8")
    code, out, _ = run(capsys, "census", *pair)
    assert code == EXIT_OK and json.loads(out)["c"] == 2
    monkeypatch.setenv("HOLOBRACE_CAP", "100")
    for argv in (("census", *pair), ("census", *pair, "--direct"), ("ybe-check", *pair)):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CAPACITY and out == ""
        assert err.endswith("(needed 168, cap 100)\n")
    monkeypatch.delenv("HOLOBRACE_CAP")
    code, out, _ = run(capsys, "census", *pair)
    assert code == EXIT_OK and json.loads(out)["c"] == 2


def test_rank2_family_budget_exit_code(capsys, monkeypatch):
    # no budget bounds the family solvers: C2 x C32 Q64 answers under a cap
    # of 1, and C2 x C_{2^18}, once refused at 8 * 2^19 points, under the
    # default cap
    monkeypatch.setenv("HOLOBRACE_CAP", "1")
    code, out, _ = run(capsys, "census", "--N", "c2xc32", "--G", "q64")
    assert code == EXIT_OK and json.loads(out)["c"] == 6
    monkeypatch.delenv("HOLOBRACE_CAP")
    code, out, _ = run(capsys, "census", "--N", "c2xc262144", "--G", "q524288")
    assert code == EXIT_OK and (json.loads(out)["c"], json.loads(out)["r"]) == (6, 16)


@pytest.mark.parametrize(
    "group,digest",
    [
        ("c4xc8", "67880f075f11d291b8d56c4f6150e0a367d616f8e44ddeb5b0e15c4e8f3623f2"),
        ("c2xc2xc2", "c9453d2aaf73c8be1094a0cbcb9dd3a0da733f67ef1686c6a82a424176996d78"),
        ("c3xc2xc4", "99cbdee109d70f717596d633427cd7712966ae4bbfaa2a86dabaa05f99fe7662"),
        ("c3xc3xc4", "5d53354a2ca2e43f621737439bbd24457efda57b82c427ed835cb1ab4c90f9c8"),
    ],
)
def test_dump_aut_bytes_are_pinned(capsys, tmp_path, group, digest):
    path = tmp_path / "aut.json"
    code, _, _ = run(capsys, "spectrum", "--N", group, "--dump-aut", str(path))
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spectrum_is_bounded_by_the_aut_block_budget(capsys, monkeypatch):
    code, out, err = run(capsys, "spectrum", "--N", "c2xc8", "--workers", "1")
    assert (code, out) == (EXIT_USAGE, "") and "--workers" in err
    # |Hol(C2^4)| = 322560 is past the full-scan cap, which spectrum does not read
    code, out, _ = run(capsys, "spectrum", "--N", "c2xc2xc2xc2")
    assert code == EXIT_OK and sum(json.loads(out)["orders"].values()) == 322560
    monkeypatch.setenv("HOLOBRACE_CAP", "100")  # |GL(3, 2)| = 168
    code, out, err = run(capsys, "spectrum", "--N", "c2xc2xc2")
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.endswith("(needed 168, cap 100)\n")


def test_census_reports_the_sylow_path(capsys):
    # |Hol(C2^4)| = 322560 is past the full-scan cap, so the auto path takes
    # the Sylow-restricted search
    code, out, _ = run(capsys, "census", "--N", "c2xc2xc2xc2", "--G", "q16")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["method"] == "sylow"
    assert (payload["c"], payload["r"], payload["h"]) == (1, 5040, 8)
    assert payload["classes"] == [{"orbit": 5040, "stabilizer": 4}]


def test_ybe_check_verifies_each_brace_once(capsys, monkeypatch):
    import holobrace.brace as brace

    calls = []
    real = brace.brace_violation
    monkeypatch.setattr(brace, "brace_violation", lambda bt: calls.append(bt) or real(bt))
    code, out, _ = run(capsys, "ybe-check", "--N", "c2xc4", "--G", "d8")
    assert code == EXIT_OK
    assert len(calls) == json.loads(out)["braces_checked"] == 5
    monkeypatch.setattr(brace, "brace_violation", lambda bt: ("associativity", 0, 0, 0))
    code, _, err = run(capsys, "ybe-check", "--N", "c2xc4", "--G", "d8")
    assert code == EXIT_MISMATCH
    assert "brace axioms failed" in err


def test_one_ybe_check_builds_one_addition_table(capsys, monkeypatch):
    # the braces of one op share their group, so the brace check and
    # `BraceTable.lam` read one table of the n translations instead of
    # building rows per brace: outside `brace_from_subgroup`, which builds
    # each brace's n rows of circ, each op makes n rows in all
    import holobrace.brace as brace
    import holobrace.cli as cli
    from holobrace.kernel import HolKernel

    calls, building = [], []
    real_images, real_build = HolKernel.images, cli.brace_from_subgroup

    def images(kern, x):
        if not building:
            calls.append(x)
        return real_images(kern, x)

    def build(rep):
        building.append(rep)
        try:
            return real_build(rep)
        finally:
            building.pop()

    monkeypatch.setattr(HolKernel, "images", images)
    monkeypatch.setattr(cli, "brace_from_subgroup", build)
    for verb, key in (("ybe-check", "nondegeneracy"), ("brace-export", "braces")):
        brace._add_table.cache_clear()
        calls.clear()
        code, out, _ = run(capsys, verb, "--N", "c7xc2xc8", "--G", "d112")
        assert code == EXIT_OK
        assert len(json.loads(out)[key]) == 6
        assert len(calls) == len(set(calls)) == 112


def test_one_ybe_check_derives_each_brace_fact_once(capsys, monkeypatch):
    # the brace check and the certificate read one `BraceTable.gens`, and
    # the solution and the certificate one `BraceTable.lam_inverse`: one
    # greedy generator pass and n inverted rows per brace, where each check
    # once derived its own
    import holobrace.brace as brace

    gens, inverses = [], []
    real_gens, real_inverse = brace.circ_generators, brace._inverse
    monkeypatch.setattr(brace, "circ_generators", lambda circ: gens.append(circ) or real_gens(circ))
    monkeypatch.setattr(brace, "_inverse", lambda p: inverses.append(p) or real_inverse(p))
    code, out, _ = run(capsys, "ybe-check", "--N", "c7xc2xc8", "--G", "d112")
    assert code == EXIT_OK
    assert json.loads(out)["braces_checked"] == 6
    assert len(gens) == len(set(gens)) == 6
    assert len(inverses) == 6 * 112


@pytest.mark.parametrize("pair", [("c2xc32", "q64"), ("c5xc2xc8", "d80"), ("c7xc2xc8", "d112"), ("c2xc4", "d8")])
def test_ybe_check_right_nondegeneracy_holds_by_the_column_sort(capsys, monkeypatch, pair):
    # ybe-check prints right_nondegenerate: true from Rump's theorem; the
    # column sort confirms it on every solution the command builds
    import holobrace.cli as cli
    from test_brace import is_right_nondegenerate

    solutions, real = [], cli.ybe_solution
    monkeypatch.setattr(cli, "ybe_solution", lambda bt: solutions.append(real(bt)) or solutions[-1])
    code, out, _ = run(capsys, "ybe-check", "--N", pair[0], "--G", pair[1])
    assert code == EXIT_OK
    checked = json.loads(out)["nondegeneracy"]
    assert len(checked) == len(solutions) > 0
    assert all(is_right_nondegenerate(sol) for sol in solutions)
    assert checked == [{"left_nondegenerate": True, "right_nondegenerate": True}] * len(solutions)


def test_ybe_check_never_builds_the_pair_table(capsys, monkeypatch):
    # the certificate reads the sigma and tau rows; the n^2 (u, v) pairs are
    # built only where a test reads `table`
    import holobrace.brace as brace

    built = []
    monkeypatch.setattr(brace.YbeSolution, "table", property(lambda sol: built.append(sol)))
    for pair in [("c2xc32", "q64"), ("c5xc2xc8", "d80"), ("c7xc2xc8", "d112"), ("c2xc4", "d8")]:
        code, out, _ = run(capsys, "ybe-check", "--N", pair[0], "--G", pair[1])
        assert code == EXIT_OK and json.loads(out)["braces_checked"] > 0
    assert built == []
    # the spy sees a read of the table
    brace.ybe_solution(brace.BraceTable(make_group([4]), ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)))).table
    assert len(built) == 1


def test_brace_export_verifies_each_brace_before_its_rows(capsys, monkeypatch):
    import holobrace.brace as brace

    calls = []
    real = brace.brace_violation
    monkeypatch.setattr(brace, "brace_violation", lambda bt: calls.append(bt) or real(bt))
    code, out, _ = run(capsys, "brace-export", "--N", "c2xc4", "--G", "d8")
    assert code == EXIT_OK
    assert len(calls) == len(json.loads(out)["braces"]) == 5
    monkeypatch.setattr(brace, "brace_violation", lambda bt: ("associativity", 0, 0))
    code, out, err = run(capsys, "brace-export", "--N", "c2xc4", "--G", "d8")
    assert code == EXIT_MISMATCH
    assert "brace axioms failed" in err
    assert '"circ"' not in out  # no row of the failing brace was written


@pytest.mark.parametrize(
    "name,value",
    [("HOLOBRACE_CAP", "2M"), ("HOLOBRACE_CAP", "0"), ("HOLOBRACE_HOL_CAP", "2M"), ("HOLOBRACE_HOL_CAP", "-1")],
)
def test_malformed_env_caps_are_input_errors(capsys, monkeypatch, tmp_path, name, value):
    monkeypatch.setenv(name, value)
    if name == "HOLOBRACE_CAP":
        argv = ["spectrum", "--N", "c2xc4", "--dump-aut", str(tmp_path / "aut.json")]
    else:  # spectrum does not scan Hol(N); a census does
        argv = ["census", "--N", "c2xc4", "--G", "d8"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert name in err


# -- fuzzing ----------------------------------------------------------------------

# Left out of the fuzz to keep it short: the two costliest cold searches up to
# order 32 (C2^4 Q16 about 0.7 s, C2^3 x C4 Q32 about 0.3 s).
_SLOW_GROUPS = {make_group([2, 2, 2, 2]), make_group([2, 2, 2, 4])}


def _cheap_factors(orders):
    return prod(orders) <= 32 and make_group(orders) not in _SLOW_GROUPS


_CHEAP_ORDERS = st.lists(
    st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 32]), min_size=1, max_size=5
).filter(_cheap_factors)
_BAD_GROUPS = st.one_of(
    st.sampled_from(["", "c", "c0", "c1", "c-4", "c2x", "[2,", "[0]", "[[4]]", "c4,c4", "g8"]),
    st.text(alphabet="cCx[],-0123456789 ", max_size=8),  # too short to spell either slow group
)
_BAD_TARGETS = st.sampled_from(["", "q", "d", "x8", "q-8", "d 8", "q8x", "qq8", "q1e3", "q0x10"])
_CAPS = st.sampled_from([None, "", "0", "-5", "2M", "0x40", "1", "100"])


@st.composite
def _census_argv(draw):
    """A census call: a valid or malformed --N, and a --G that often matches |N|."""
    orders = draw(_CHEAP_ORDERS)
    group = draw(
        st.one_of(
            st.sampled_from(["x".join(f"c{k}" for k in orders), "[" + ",".join(map(str, orders)) + "]"]),
            _BAD_GROUPS,
        )
    )
    order = draw(st.one_of(st.just(prod(orders)), st.integers(min_value=0, max_value=64)))
    target = draw(st.one_of(st.sampled_from([f"q{order}", f"d{order}", f"D{order}"]), _BAD_TARGETS))
    return ["census", "--N", group, "--G", target]


# decimals past Python's 4300-digit int-string limit, in each place a spec
# holds one
_NINES = "9" * 5000
_LONG_SPECS = [("c" + _NINES, "q4"), (f"[{_NINES}]", "q4"), (f"[2,{_NINES}]", "d8"), ("c4", "q" + _NINES)]
# orders whose factoring trial division refuses (2^61 - 1 and 10^9 + 7 times
# 10^9 + 9 have no divisor below 2^20), and the prime 999999999989, whose
# square root has 20 bits, which it factors
_BIG_PRIME_SPECS = [
    ("c4xc2305843009213693951", "q9223372036854775804"),
    ("c4xc1000000007xc1000000009", "q4000000064000000252"),
    ("c4xc999999999989", "q3999999999956"),
]


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_census_argv(), _CAPS, _CAPS)
@example(["census", "--N", _LONG_SPECS[0][0], "--G", _LONG_SPECS[0][1]], None, None)
@example(["census", "--N", _LONG_SPECS[1][0], "--G", _LONG_SPECS[1][1]], None, None)
@example(["census", "--N", _LONG_SPECS[2][0], "--G", _LONG_SPECS[2][1]], None, None)
@example(["census", "--N", _LONG_SPECS[3][0], "--G", _LONG_SPECS[3][1]], None, None)
@example(["census", "--N", _BIG_PRIME_SPECS[0][0], "--G", _BIG_PRIME_SPECS[0][1]], None, None)
@example(["census", "--N", _BIG_PRIME_SPECS[1][0], "--G", _BIG_PRIME_SPECS[1][1]], None, None)
@example(["census", "--N", _BIG_PRIME_SPECS[2][0], "--G", _BIG_PRIME_SPECS[2][1]], None, None)
def test_census_fuzz_exits_with_a_documented_code(argv, cap, hol_cap):
    """Any spec, target and cap values end in exit 0, 1 or 3; nothing escapes main."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("HOLOBRACE_CAP", cap), ("HOLOBRACE_HOL_CAP", hol_cap)):
            if value is None:
                mp.delenv(name, raising=False)
            else:
                mp.setenv(name, value)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY), (argv, cap, hol_cap)


@pytest.mark.parametrize("spec", _LONG_SPECS, ids=["c-form", "bracket", "bracket-list", "target"])
def test_a_decimal_past_the_digit_limit_is_an_input_error(capsys, spec):
    code, out, err = run(capsys, "census", "--N", spec[0], "--G", spec[1])
    length = max(map(len, spec))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"invalid input: spec of {length} characters has a number with too many digits\n"


@pytest.mark.parametrize(
    "flags",
    [("--n-max", "14285", "--s", "1"), ("--n-max", "14284"), ("--n-max", "1000000"), ("--n-max", _NINES[:4000])],
)
def test_a_table_past_the_digit_limit_is_refused_before_any_row(capsys, flags):
    # 2^14285 has 4301 digits, and so has 3 * 2^14284 (--s defaults to 3):
    # no row could be printed, so none is computed
    code, out, err = run(capsys, "tables", "--which", "3", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"usage error: --n-max and --s: 2^n_max * s, the largest order a row prints, has over {limit} digits\n"


@pytest.mark.parametrize("verb,flag", [("tables", "--n-max"), ("tables", "--s"), ("verify-conjecture", "--m-max")])
def test_an_int_flag_past_the_digit_limit_names_the_limit(capsys, verb, flag):
    # the message names the flag and the limit; it does not echo the value
    which = ("--which", "3") if verb == "tables" else ()
    limit = sys.get_int_max_str_digits()
    for value in (_NINES, "-" + _NINES, "+" + _NINES):
        code, out, err = run(capsys, verb, *which, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: argument {flag}: is longer than the {limit}-digit limit\n"
    code, _, err = run(capsys, verb, *which, flag, "+-5")
    assert (code, err) == (EXIT_USAGE, f"usage error: argument {flag}: invalid int value: '+-5'\n")


@pytest.mark.parametrize(
    "argv,needed",
    [
        (["tables", "--which", "3", "--n-max", "2", "--s", "2305843009213693951"], 31),
        (["census", "--N", _BIG_PRIME_SPECS[0][0], "--G", _BIG_PRIME_SPECS[0][1]], 31),
        (["census", "--N", _BIG_PRIME_SPECS[1][0], "--G", _BIG_PRIME_SPECS[1][1]], 30),
    ],
)
def test_trial_division_is_bounded(capsys, argv, needed):
    # every order is factored by `abelian._factorize`, whose trial division
    # stops at divisors of 20 bits: these exit 3 at once instead of running on
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err == f"capacity exceeded: trial division stops at divisors of 20 bits (needed {needed}, cap 20)\n"


def test_a_prime_within_the_trial_division_bound_still_answers(capsys):
    code, out, err = run(capsys, "census", "--N", _BIG_PRIME_SPECS[2][0], "--G", _BIG_PRIME_SPECS[2][1])
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert (payload["c"], payload["r"], payload["h"], payload["method"]) == (1, 1, 999999999989, "reduction")


_EIGHTS = "8" * 4000


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--which", "3", "--s", _EIGHTS],
        ["tables", "--which", "3", "--s", "-" + _EIGHTS],
        ["tables", "--which", "3", "--n-max", "-" + _EIGHTS],
        ["tables", "--which", "1", "--s", _EIGHTS],
        ["tables", "--which", "1", "--n-max", _EIGHTS],
        ["tables", "--which", _EIGHTS],
        ["tables", "--which", "3", "--s", "x" + _EIGHTS],
        ["verify-conjecture", "--m-max", "-" + _EIGHTS],
    ],
)
def test_usage_errors_do_not_echo_a_long_value(capsys, argv):
    # the message names the flag and the value's length, not the value
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.encode()) < 200
    assert argv[-2] in err and f"<{len(argv[-1])} characters>" in err
