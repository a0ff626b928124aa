"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD ORDER [TRACE_FILE]

ORDER is a comma-separated list of op indices into the workload; an empty
ORDER only imports holobrace and times the calibration work (a set-up probe).  With TRACE_FILE the layer
spans are recorded and written there.  The last line on stdout is one JSON
object: the monotonic time at which `holobrace.cli` finished importing, the
pass wall time, the pass time in calibration units, the peak RSS and every
op's exit code, stderr and stdout.

Calibration.  The host's CPU speed drifts by tens of percent within seconds,
so an untraced pass also measures the speed of the host while it runs: a
timer signal interrupts the program about every 0.1 s and runs a fixed piece
of pure-Python work (`calibration_work`) in the handler.  The time spent in
the handler is taken out of the pass's wall time, and each stretch of program
time between two samples is divided by the mean of those two samples.  The
sum, `wall_cal`, is the pass's time in units of the calibration work, which
holds still when the host speeds up or slows down.  Traced passes do not
calibrate, so their spans hold program time only.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import holobrace.cli  # noqa: E402  (set-up ends when this import returns)
from time import monotonic  # noqa: E402

READY = monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Wall time between two calibration samples: uniform in this range, so that
# the samples do not lock onto a periodic change of the host's speed.
CAL_GAP_S = (0.05, 0.15)
CAL_TABLES = tuple(bytes((a * i + b) % 256 for i in range(256)) for a, b in ((5, 1), (13, 7), (29, 3), (77, 11)))
CAL_STEPS = bytes(range(256)) * 128


def calibration_work() -> int:
    """Fixed pure-Python work, about 5 ms: table lookups on bytes.

    Every value stays below 256, so the loop allocates nothing and touches a
    few kilobytes: its time follows the host's speed, not the state of the
    program's heap or caches at the moment it interrupts.
    """
    x = 0
    for table in CAL_TABLES:
        for i in CAL_STEPS:
            x = table[x ^ i]
    return x


class Calibration:
    """Samples of the calibration work's duration, taken at program times."""

    def __init__(self) -> None:
        self.paused = 0.0  # wall time spent calibrating
        self.samples: list[tuple[float, float]] = []  # (program time, seconds)
        self.gaps = random.Random(0)

    def program_time(self) -> float:
        return perf_counter() - self.paused

    def sample(self, *_signal) -> None:
        was_enabled = gc.isenabled()
        gc.disable()  # a collection here would bill program work to the sample
        start = perf_counter()
        calibration_work()
        took = perf_counter() - start
        if was_enabled:
            gc.enable()
        self.samples.append((start - self.paused, took))
        self.paused += perf_counter() - start
        if _signal:
            signal.setitimer(signal.ITIMER_REAL, self.gaps.uniform(*CAL_GAP_S))

    def start(self) -> None:
        calibration_work()  # warm-up, untimed
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.gaps.uniform(*CAL_GAP_S))

    def stop(self) -> float:
        """Program time since `start` in units of the calibration work."""
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # first, so no sample re-arms the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        return sum(
            (t1 - t0) / ((c0 + c1) / 2) for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:])
        )


def run(workload: str, order: list[int], trace_file: str | None) -> dict:
    if not order:  # a set-up probe: how fast the host is right after set-up
        calibration_work()
        cal_s = []
        for _ in range(5):
            begin = perf_counter()
            calibration_work()
            cal_s.append(perf_counter() - begin)
        return {"ready": READY, "cal_s": sorted(cal_s)[2]}
    ops = WORKLOADS[workload]
    tracer = None
    if trace_file:
        tracer = Tracer()
        tracer.install()
    cli = sys.modules["holobrace.cli"]  # looked up per call, so a traced main is used
    records = []
    calibration = Calibration() if tracer is None else None
    if calibration is not None:
        calibration.start()
        clock = calibration.program_time
    else:
        clock = perf_counter
    start = clock()
    for i in order:
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(ops[i]))
            error = err.getvalue()
        except Exception:  # an op that raises is a failed op, not a failed pass
            rc, error = None, traceback.format_exc()
        records.append({"op": i, "rc": rc, "error": error, "out": out.getvalue()})
    wall = clock() - start
    wall_cal = calibration.stop() if calibration is not None else None
    if tracer is not None:
        tracer.write(trace_file)
    return {
        "ready": READY,
        "wall_s": wall,
        "wall_cal": wall_cal,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
    }


def main() -> int:
    if not os.path.abspath(holobrace.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"holobrace was imported from {holobrace.cli.__file__}, not {SRC}\n")
        return 2
    workload, order = sys.argv[1], sys.argv[2]
    trace_file = sys.argv[3] if len(sys.argv) > 3 else None
    indices = [int(i) for i in order.split(",")] if order else []
    result = run(workload, indices, trace_file)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
