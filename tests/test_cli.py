import hashlib
import json
from pathlib import Path

import pytest

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
        "spectrum", "--N", "c4xc8", "--workers", "1",
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


def test_usage_errors(capsys):
    code, _, err = run(capsys, "census", "--N", "c2xc8")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "census", "--N", "notagroup", "--G", "q8")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "census", "--N", "c2xc8", "--G", "q8")
    assert code == EXIT_USAGE  # order mismatch is an input error


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


def test_cyclic_family_budget_exit_code(capsys, monkeypatch):
    # C64 D64: 32 X candidates times 100 Y candidates, past a cap of 1000
    monkeypatch.setenv("HOLOBRACE_CAP", "1000")
    code, out, err = run(capsys, "census", "--N", "c64", "--G", "d64")
    assert code == EXIT_CAPACITY and out == ""
    assert err.endswith("(needed 3200, cap 1000)\n")
    monkeypatch.delenv("HOLOBRACE_CAP")
    code, out, _ = run(capsys, "census", "--N", "c64", "--G", "d64")
    assert code == EXIT_OK and (json.loads(out)["c"], json.loads(out)["r"]) == (1, 1)


def test_cached_census_still_meets_a_lowered_budget(capsys, monkeypatch):
    code, out, _ = run(capsys, "census", "--N", "c64", "--G", "d64")
    assert code == EXIT_OK and json.loads(out)["c"] == 1
    monkeypatch.setenv("HOLOBRACE_CAP", "1000")
    code, out, err = run(capsys, "census", "--N", "c64", "--G", "d64")
    assert code == EXIT_CAPACITY and out == ""
    assert err.endswith("(needed 3200, cap 1000)\n")


def test_rank2_family_budget_exit_code(capsys, monkeypatch):
    # the rank-2 solver holds 16 subgroups of 2^n encodings: 2^10 at n = 6
    monkeypatch.setenv("HOLOBRACE_CAP", "1000")
    code, out, err = run(capsys, "census", "--N", "c2xc32", "--G", "q64")
    assert code == EXIT_CAPACITY and out == ""
    assert err.endswith("(needed 1024, cap 1000)\n")
    code, out, _ = run(capsys, "census", "--N", "c2xc16", "--G", "q32")
    assert code == EXIT_OK and json.loads(out)["c"] == 6


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
    code, _, _ = run(capsys, "spectrum", "--N", group, "--workers", "1", "--dump-aut", str(path))
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_spectrum_workers_deterministic(capsys):
    a = run(capsys, "spectrum", "--N", "c2xc8", "--workers", "1")
    b = run(capsys, "spectrum", "--N", "c2xc8", "--workers", "2")
    assert json.loads(a[1]) == json.loads(b[1])


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


@pytest.mark.parametrize(
    "name,value",
    [("HOLOBRACE_CAP", "2M"), ("HOLOBRACE_CAP", "0"), ("HOLOBRACE_HOL_CAP", "2M"), ("HOLOBRACE_HOL_CAP", "-1")],
)
def test_malformed_env_caps_are_input_errors(capsys, monkeypatch, tmp_path, name, value):
    monkeypatch.setenv(name, value)
    code, _, err = run(
        capsys, "spectrum", "--N", "c2xc4", "--workers", "1", "--dump-aut", str(tmp_path / "aut.json")
    )
    assert code == EXIT_USAGE
    assert name in err
