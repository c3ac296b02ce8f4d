"""Run one superschur workload end to end and print its metrics.

    python3 benchmarks/run.py --workload schurweyl --seed 1 --seconds 30 --trace 0

One process, one thread, one caller: each operation is one superschur
command run in this process through ``superschur.cli.main(argv)`` with
stdout captured, and the next starts only when it returns.  A pass runs
every command of the workload once; whole passes repeat until the next one
would overrun ``--seconds``.

Times are read against a fixed reference loop (stdlib ``Fraction`` and dict
arithmetic, no superschur code).  A SIGALRM handler in the same thread runs
and times that loop every ``SAMPLE_INTERVAL`` seconds during the passes, in
and between commands.  A command's time, less the loop time spent inside
it, is divided by the mean loop time in a window around it.  The speed of a
shared core can halve for a fraction of a second and recover; a loop timed
only before and after a six-second command misses that, a loop sampled
through it does not.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` the layers are wrapped (see
``tracing.py``), no sampler runs, and the line carries the per-layer
metrics.  Outputs are checked against ``oracles.py`` after the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

REF_ITERS = 100  # about 0.5 to 1 ms on a 2020s x86 core
SAMPLE_INTERVAL = 0.03
WINDOW = 0.25  # seconds either side of a command; widened until MIN_SAMPLES
MIN_SAMPLES = 8
SETUP_INTERPRETERS = 6  # before the passes, and as many after them
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import superschur, superschur.cli; print(time.perf_counter() - t)"
)


def reference_loop() -> Fraction:
    acc: dict = {}
    for i in range(REF_ITERS):
        key = i % 61
        acc[key] = acc.get(key, 0) + Fraction(i % 7 - 3, i % 5 + 1) * Fraction(key + 1, i % 3 + 2)
    return sum(acc.values())


class ReferenceSampler:
    """Times ``reference_loop`` from a SIGALRM handler every SAMPLE_INTERVAL
    seconds while active; keeps each sample's start and length."""

    def __init__(self):
        self.starts = array("d")
        self.lengths = array("d")

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself ran between t0 and t1."""
        return sum(self.lengths[bisect_left(self.starts, t0) : bisect_left(self.starts, t1)])

    def reference(self, t0: float, t1: float) -> float:
        """Mean loop time over a window around [t0, t1]."""
        half = WINDOW
        while True:
            lo = bisect_left(self.starts, t0 - half)
            hi = bisect_right(self.starts, t1 + half)
            if hi - lo >= min(MIN_SAMPLES, len(self.starts)):
                return statistics.fmean(self.lengths[lo:hi])
            half *= 2


def setup_times(count: int) -> list:
    """Import times of superschur and its CLI in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return times


def run_op(main, op) -> tuple[bool, str, float, float]:
    """Run one command; returns (succeeded, stdout, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if op.stdin is not None:
        sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except Exception as exc:  # an escaped traceback is a failed operation
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = "traceback"
            t1 = time.perf_counter()
    finally:
        sys.stdin = saved_stdin
    if code != 0:
        print(f"failed ({code}): superschur {op.label}: {err.getvalue().strip()[:300]}", file=sys.stderr)
    return code == 0, out.getvalue(), t0, t1


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_passes(ops: list, main, seconds: float, sampler) -> tuple:
    """Whole passes until the next would overrun.  Returns the number of
    passes; per op, (pass, start, end) of each successful run and its first
    stdout; the labels of ops whose stdout changed between repetitions; and
    the attempted and failed counts."""
    runs = [[] for _ in ops]
    first_out: list = [None] * len(ops)
    mismatched, attempted, failed, passes = set(), 0, 0, 0
    start = time.perf_counter()
    with sampler:
        while True:
            pass_start = time.perf_counter()
            for i, op in enumerate(ops):
                ok, out, t0, t1 = run_op(main, op)
                attempted += 1
                if not ok:
                    failed += 1
                    continue
                runs[i].append((passes, t0, t1))
                if first_out[i] is None:
                    first_out[i] = out
                elif out != first_out[i]:
                    mismatched.add(op.label)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    return passes, runs, first_out, sorted(mismatched), attempted, failed


class NoSampler:
    """Stands in for ReferenceSampler in traced runs, which keep no clock
    but the spans'."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def inside(self, t0: float, t1: float) -> float:
        return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superschur" / "cli.py").is_file():
        print(f"run.py: no superschur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import superschur.cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    ops, extra_check = workloads.WORKLOADS[args.workload](args.seed)
    errors = []
    try:
        extra_check()  # calls superschur, so it runs before any tracing
    except workloads.WrongOutput as exc:
        errors.append(str(exc))
    if not args.trace:
        # the first import leaves the bytecode cache warm and is not counted
        setup = setup_times(1 + SETUP_INTERPRETERS)[1:]
    tracer = None
    sampler = ReferenceSampler()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        sampler = NoSampler()

    passes, runs, first_out, mismatched, attempted, failed = run_passes(
        ops, superschur.cli.main, args.seconds, sampler
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        # a second batch a run's length later samples another stretch of the
        # machine's speed swings
        setup += setup_times(SETUP_INTERPRETERS)

    errors += [f"stdout differs between repetitions: {label}" for label in mismatched]
    for op, out in zip(ops, first_out):
        if out is None:
            continue
        try:
            op.check(out)
        except (workloads.WrongOutput, ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    for message in errors:
        print(f"wrong output: {message}", file=sys.stderr)

    pass_seconds = [0.0] * passes
    ratios = []  # per op: net seconds over the local reference, per run
    for op_runs in runs:
        ratios.append([])
        for p, t0, t1 in op_runs:
            net = t1 - t0 - sampler.inside(t0, t1)
            pass_seconds[p] += net
            if tracer is None:
                ratios[-1].append(net / sampler.reference(t0, t1))
    raw = quartiles(pass_seconds)
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {len(ops)} commands")
    print(f"raw pass seconds: median {raw[1]:.4f} (quartiles {raw[0]:.4f} {raw[2]:.4f})")
    if tracer is None:
        ref = sampler.lengths
        print(f"reference loop: {len(ref)} samples, median {statistics.median(ref):.6f} s")
        pass_ref = sum(statistics.median(r) for r in ratios if r)
        metrics = {
            "pass_ref": (pass_ref, "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(passes)
        metrics["trace.pass_s"] = (raw[1], "s")
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_file)
        print(f"spans written to {spans_file.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
