"""holobrace benchmark: fixed workloads through `holobrace.cli.main`.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --write-fixtures     # record expected outputs

Load model: batch, closed loop, one client.  A run repeats passes until
`--seconds` have gone by; each pass is a fresh interpreter (`worker.py`,
HOLOBRACE_CAP and HOLOBRACE_HOL_CAP unset) that runs every op of the workload
once, one after another, in an order drawn from `--seed`.  Every op's output
is checked against the fixtures and against independent references
(`workloads.check`).

`--trace 0` reports the end-to-end metrics, which are scaled by the host's
speed as measured alongside (see worker.py); `--trace 1` runs untraced and
traced passes and reports per-layer metrics from the traced ones.  The last
line on stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check, op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FIXTURES = HERE / "fixtures" / "expected.json"
SETUP_PROBES = 11  # timed set-up probes per run, after one untimed warm-up
# `setup_s` is scaled to a host on which the calibration work
# (`worker.calibration_work`) takes this long, as measured right after set-up.
CAL_REF_S = 0.005
RUN_DEADLINE_S = 170  # no pass starts that could not finish before this
# Untraced runs of these workloads make single passes, not pairs (see
# pass_order): the order of the three tables moves neither their time nor
# their peak RSS measurably, and one pass already outlasts a run.
UNPAIRED = {"tables"}


class PassError(Exception):
    """A worker that died or printed no result: the program could not run."""


def _worker_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("HOLOBRACE_CAP", "HOLOBRACE_HOL_CAP")}


def run_pass(workload: str, order: list[int], trace_file: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, ",".join(map(str, order))]
    if trace_file is not None:
        cmd.append(str(trace_file))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def pass_order(seed: int, k: int, n_ops: int) -> list[int]:
    """Op order of pass k.  Passes come in pairs, an order and its reverse, so
    that over a pair each op runs before each other op exactly once: what one
    op leaves in the caches for another weighs the same in every run."""
    order = list(range(n_ops))
    random.Random(f"{seed}/{k // 2}").shuffle(order)
    return order[::-1] if k % 2 else order


# -- correctness -------------------------------------------------------------------


def load_fixtures() -> dict:
    return json.loads(FIXTURES.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(workload: str, result: dict, expected: dict) -> tuple[int, list[str]]:
    """(failed ops, problems) for one pass."""
    ops = WORKLOADS[workload]
    failed, problems, outputs = 0, [], {}
    for rec in result["ops"]:
        key = op_key(ops[rec["op"]])
        outputs[key] = rec["out"]
        if rec["rc"] != 0:
            failed += 1
            problems.append(f"{key}: exit {rec['rc']} {rec['error'].strip()[-500:]}")
        elif digest(rec["out"]) != expected[key]["sha256"]:
            failed += 1
            problems.append(f"{key}: output differs from the fixture")
    if not failed:
        problems += check(workload, outputs, ROOT)
    return failed, problems


# -- per-layer aggregation -------------------------------------------------------


def layer_metrics(trace_file: Path) -> dict:
    """Per-layer self times and counts of one traced pass."""
    spans, counts = [], {}
    with open(trace_file, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    # Self time per enclosing `counts.census` call, to compare the structured
    # and generic paths on the same (N, G) pair under --cross-check.
    census_of: list[int] = []
    by_census: dict[int, dict[str, float]] = {}
    for i, (s, child) in enumerate(zip(spans, child_time)):
        own = s["end"] - s["start"] - child
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        if s["name"] == "counts.census":
            census_of.append(i)
        else:
            census_of.append(census_of[s["parent"]] if s["parent"] >= 0 else -1)
        if census_of[i] >= 0:
            per = by_census.setdefault(census_of[i], {})
            per[s["name"]] = per.get(s["name"], 0.0) + own

    def self_of(*names: str) -> float:
        return sum((v for k, v in self_s.items() if k in names or any(k.startswith(n + ".") for n in names)), 0.0)

    both = [c for c in by_census.values() if "structured.solve" in c and "regular.search" in c]
    structured_s = sum((c["structured.solve"] for c in both), 0.0)
    regular_s = sum((c["regular.search"] + c.get("regular.classify", 0.0) for c in both), 0.0)
    pool_elements = counts.get("kernel.pool_elements", 0)
    subgroups = counts.get("regular.subgroups", 0)
    return {
        "cli.self_s": self_of("cli"),
        "counts.self_s": self_of("counts"),
        "counts.census.calls": calls.get("counts.census", 0),
        "oddpart.reduce.self_s": self_of("oddpart.reduce"),
        "oddpart.reduce.calls": calls.get("oddpart.reduce", 0),
        "structured.solve.self_s": self_of("structured.solve"),
        "structured.solve.calls": calls.get("structured.solve", 0),
        "structured.vs_direct": structured_s / regular_s if regular_s else 0.0,
        "structured.vs_direct.base_s": regular_s,
        "regular.search.self_s": self_of("regular.search"),
        "regular.search.calls": calls.get("regular.search", 0),
        "regular.classify.self_s": self_of("regular.classify"),
        "regular.classify.calls": calls.get("regular.classify", 0),
        "regular.subgroups": subgroups,
        "regular.classes": counts.get("regular.classes", 0),
        "regular.yield": subgroups / pool_elements if pool_elements else 0.0,
        "kernel.get_kernel.self_s": self_of("kernel.get_kernel"),
        "kernel.pool.self_s": self_of("kernel.pool"),
        "kernel.pool_elements": pool_elements,
        "endo.enumerate_aut.self_s": self_of("endo.enumerate_aut"),
        "endo.generators.self_s": self_of("endo.generators"),
        "endo.generators.calls": calls.get("endo.generators", 0),
        "endo.aut_elements": counts.get("endo.aut_elements", 0),
        "brace.from_subgroup.self_s": self_of("brace.from_subgroup"),
        "brace.verify.self_s": self_of("brace.verify"),
        "brace.verify.calls": calls.get("brace.verify", 0),
        "brace.ybe.self_s": self_of("brace.ybe"),
        "brace.verify.triples": counts.get("brace.verify.triples", 0),
    }


def export_bytes(workload: str, result: dict) -> int:
    ops = WORKLOADS[workload]
    return sum(len(r["out"].encode("utf-8")) for r in result["ops"] if ops[r["op"]][0] == "brace-export")


# -- one run -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    expected = load_fixtures()[workload]
    n_ops = len(WORKLOADS[workload])
    OUT.mkdir(exist_ok=True)
    begin = time.monotonic()
    setups = []
    if not traced:
        run_pass(workload, [], None, RUN_DEADLINE_S)  # warm-up: bytecode caches
        setups = [run_pass(workload, [], None, RUN_DEADLINE_S) for _ in range(SETUP_PROBES)]
    passes: list[tuple[Path | None, dict]] = []  # (trace file or None, result)
    start = time.monotonic()
    while True:
        k = len(passes)
        # Traced runs go untraced, traced, traced, untraced, ...: at least two
        # traced passes, so that counts must repeat across op orders.
        trace_file = OUT / f"trace-{workload}-{k}.jsonl" if traced and k % 3 else None
        timeout = RUN_DEADLINE_S - (time.monotonic() - begin)
        passes.append((trace_file, run_pass(workload, pass_order(seed, k, n_ops), trace_file, timeout)))
        elapsed = time.monotonic() - start
        if traced:
            enough = elapsed >= seconds and len(passes) >= 3
        else:
            enough = elapsed >= seconds and (len(passes) % 2 == 0 or workload in UNPAIRED)
        longest = max(p["wall_s"] + p["setup_s"] for _, p in passes)
        if enough or time.monotonic() - begin + longest * 1.5 > RUN_DEADLINE_S:
            break

    failed, attempted, problems = 0, 0, []
    for _, p in passes:
        f, probs = judge(workload, p, expected)
        failed += f
        attempted += len(p["ops"])
        problems += probs
    plain = [p for trace_file, p in passes if trace_file is None]
    metrics: dict[str, float] = {}
    info: dict[str, float] = {}  # printed, not part of the result line
    if not traced:
        metrics["wall_cal"] = statistics.median(p["wall_cal"] for p in plain)
        info["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        info["cal_s"] = statistics.median(p["wall_s"] / p["wall_cal"] for p in plain)
        metrics["setup_s"] = statistics.median(p["setup_s"] * CAL_REF_S / p["cal_s"] for p in setups)
        info["setup_raw_s"] = statistics.median(p["setup_s"] for p in setups)
        metrics["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in plain)
    else:
        traced_passes = [(trace_file, p) for trace_file, p in passes if trace_file is not None]
        layers = [layer_metrics(trace_file) for trace_file, _ in traced_passes]
        for name in layers[0]:
            values = [m[name] for m in layers]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    problems.append(f"count {name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["brace.export_bytes"] = export_bytes(workload, plain[0])
        traced_wall = statistics.median(p["wall_s"] for _, p in traced_passes)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
        # Self-test: tracing must not change a single output byte.
        ref = {r["op"]: r["out"] for r in plain[0]["ops"]}
        for _, p in traced_passes:
            for r in p["ops"]:
                if r["out"] != ref[r["op"]]:
                    problems.append(f"{op_key(WORKLOADS[workload][r['op']])}: traced output differs")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(passes),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "info": info,
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_run(res: dict, units: dict[str, str]) -> None:
    print(f"# {res['workload']} trace={res['trace']} seed={res['seed']} passes={res['passes']}")
    for name, value in res["metrics"].items():
        print(f"{res['workload']:>12}  {name:<28} {value:>14.6g} {units[name]}")
    for name, value in res["info"].items():
        print(f"{res['workload']:>12}  {name:<28} {value:>14.6g} s (not gated)")
    print(f"{res['workload']:>12}  {'fail_frac':<28} {res['fail_frac']:>14.6g} ratio")
    for problem in res["problems"]:
        print(f"{res['workload']:>12}  PROBLEM {problem}")


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def write_fixtures() -> int:
    fixtures = {}
    for workload, ops in WORKLOADS.items():
        result = run_pass(workload, list(range(len(ops))), None, RUN_DEADLINE_S * 2)
        entries = {}
        for rec in result["ops"]:
            if rec["rc"] != 0:
                sys.stderr.write(f"{op_key(ops[rec['op']])}: exit {rec['rc']}\n")
                return 1
            entries[op_key(ops[rec["op"]])] = {"sha256": digest(rec["out"]), "bytes": len(rec["out"].encode("utf-8"))}
        problems = check(workload, {op_key(ops[r["op"]]): r["out"] for r in result["ops"]}, ROOT)
        if problems:
            sys.stderr.write("\n".join(problems) + "\n")
            return 1
        fixtures[workload] = entries
    FIXTURES.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fixtures", action="store_true")
    args = parser.parse_args()
    missing = [p for p in ("src/holobrace/cli.py", "tests/golden/table1.txt") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a holobrace checkout: {', '.join(missing)} missing under {ROOT}\n")
        return 2
    if args.write_fixtures:
        return write_fixtures()
    units = metric_units()
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_run(res, units)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
            print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
            return 0
        report = {"environment": environment(), "runs": []}
        for workload in WORKLOADS:
            for traced in (False, True):
                res = run_workload(workload, args.seed, args.seconds, traced)
                print_run(res, units)
                report["runs"].append(res)
        (OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        ok = all(r["correct"] for r in report["runs"])
        print(json.dumps({"correct": ok, "report": str((OUT / "report.json").relative_to(ROOT))}))
        return 0
    except PassError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
