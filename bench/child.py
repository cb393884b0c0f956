"""One share of a workload in one process: set up, then run ops one
after another.

Started by ``run.py`` and never imported by it.  With ``--part i --parts
n`` pass p runs every n-th op starting at op (i + p) mod n, so ``run.py``
can spread one run over n processes started one after another.  Modes:

* ``run``   -- set up, then run as many passes of its share of the ops as
  the whole workload needs for ``--seconds`` at this commit (untraced).
  The pass count is fixed from the workload's nominal pass time, so two
  commits measure the same ops;
* ``trace`` -- set up, run one pass untraced, the same pass traced and
  again untraced, then time the scalar microbenchmarks.

The last stdout line is a JSON report.  Guard rails act on this process
only: an address-space cap, and a wall-clock limit per op (SIGALRM), so
an op that runs away counts as failed instead of hanging the run.

Host speed on a shared machine drifts by up to 1.7x within seconds, and a
program-independent loop slows with it.  Every ~0.1 s, also in the middle
of a long op, the child times that calibration loop, and each op's CPU
time is scaled by ``CAL_REF_S`` over the mean calibration around and
inside it.  Times are therefore reported at the speed the reference
host has when the loop takes ``CAL_REF_S``; work moved into or out of the
program still shows in full.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Process CPU time: on a shared virtual machine the process also loses the
# CPU for hundreds of milliseconds at a time, gaps that wall time would
# charge to whichever op was running.  The ops neither sleep nor wait on
# I/O, so their CPU time is their whole cost.
CLOCK = time.process_time
CAL_REF_S = 0.0021  # the calibration loop on the reference host at full speed
CAL_EVERY_S = 0.1
ADDRESS_SPACE_CAP = 1536 * 1024 * 1024
OP_LIMIT_S = 60
RUN_WALL_CAP_S = 100


def _calibration_loop():
    # Fraction arithmetic, tuples and dict stores, like the engine's hot paths
    x = Fraction(1, 3)
    table = {}
    for i in range(330):
        x = x * Fraction(i % 7 + 1, 5) + Fraction(1, i + 2)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        table[(i, i % 13)] = x
    return len(table)


def calibrate():
    # the collector stays off so a collection of the workload's garbage
    # cannot land inside the calibration
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = CLOCK()
            _calibration_loop()
            times.append(CLOCK() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class OpTimeout(Exception):
    pass


class Timeline:
    """Op CPU times, the calibrations around and inside them, and the
    per-op wall-clock limit.

    A wall-clock interval timer (SIGALRM every ``CAL_EVERY_S``) enforces
    the limit and, with ``ticks``, calibrates, also in the middle of an op;
    the op's own time leaves the handler's time out, and the op is scaled
    by the mean of the calibrations just before, during and just after it.
    Without ``ticks`` (set-up and traced runs, whose spans would absorb the
    handler) calibrations happen only between ops.  A CPU-time timer would
    be the natural choice, but on kernels without fine-grained CPU
    accounting, arming one makes the process CPU clock advance in whole
    scheduler ticks."""

    def __init__(self, ticks=True):
        self.cals = []
        self.spent = 0.0  # CPU time spent in calibrations
        self.ops = []  # (raw seconds, first and last calibration index)
        self.ticks = ticks
        self.deadline = None
        self.calibrate()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def _tick(self, signum, frame):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")
        if self.ticks:
            self.calibrate()

    def calibrate(self):
        start = CLOCK()
        self.cals.append(calibrate())
        self.spent += CLOCK() - start
        self.last_cal = CLOCK()

    def run(self, op, workloads):
        """Run one op; True when its verdict is right."""
        if not self.ticks and CLOCK() - self.last_cal > CAL_EVERY_S:
            self.calibrate()
        first, spent = len(self.cals) - 1, self.spent
        start = CLOCK()
        self.deadline = time.monotonic() + OP_LIMIT_S
        try:
            got = op.run()
            ok = not workloads.expects_raise(op) and got == op.expect
        except OpTimeout:
            ok = False
        except Exception as err:  # the verdict oracle decides; any other raise fails the op
            ok = workloads.expects_raise(op) and isinstance(err, op.expect)
        finally:
            self.deadline = None
        self.ops.append((CLOCK() - start - (self.spent - spent), first, len(self.cals)))
        return ok

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.calibrate()

    def scaled(self):
        """Reference-speed seconds of every op (call after ``close``)."""
        return [raw * CAL_REF_S / statistics.mean(self.cals[first:last + 1])
                for raw, first, last in self.ops]

    def factor(self):
        return CAL_REF_S / statistics.median(self.cals)


def run_pass(ops, workloads, timeline, kinds=None, tracer=None):
    failed = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        failed += not timeline.run(op, workloads)
        if kinds is not None:
            kinds.append(op.kind)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-wrong-verdict", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    cal_start = CLOCK()
    cal_first = calibrate()
    cal_spent = CLOCK() - cal_start

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import cuntzlab
    import workloads

    if Path(cuntzlab.__file__).resolve().parent != ROOT / "src" / "cuntzlab":
        raise SystemExit(f"imported cuntzlab from {cuntzlab.__file__}, not from this checkout")
    cals = [cal_first]

    def checkpoint():
        nonlocal cal_spent
        start = CLOCK()
        cals.append(calibrate())
        cal_spent += CLOCK() - start

    checkpoint()
    workload = workloads.build(args.workload, args.seed, args.smoke)
    if args.inject_wrong_verdict:
        workload.ops[0].expect = ("deliberately wrong", workload.ops[0].expect)
    checkpoint()
    warm = Timeline(ticks=False)
    warm_failed = run_pass(workload.warmup, workloads, warm)
    warm.close()
    cal_spent += warm.spent
    # every input of a pass is alive for the whole run, a heap no caller of
    # the library holds; frozen, the collector stops rescanning it, and
    # collections during an op cost what the op's own garbage costs
    gc.freeze()
    checkpoint()
    report = {
        # CPU time since exec: interpreter start, imports, inputs, warm-up
        "setup_s": (CLOCK() - cal_spent) * CAL_REF_S / statistics.mean(cals),
        "digest": workload.digest,
        "pass_ops": len(workload.ops),
    }
    if warm_failed:
        report.update(attempted=len(workload.warmup), failed=warm_failed)
    elif args.mode == "run":
        report.update(timed_run(workload, workloads, args))
    elif args.mode == "trace":
        report.update(traced_run(workload, workloads, args))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


def timed_run(workload, workloads, args):
    timeline = Timeline()
    wall_start = time.monotonic()
    failed = passes = 0
    kinds = []
    while passes < max(workload.min_passes, round(args.seconds / workload.pass_s)):
        # the share rotates, so an op of a run with several passes is timed
        # in several processes
        start = (args.part + passes) % args.parts
        failed += run_pass(workload.ops[start::args.parts], workloads, timeline, kinds)
        passes += 1
        if time.monotonic() - wall_start > RUN_WALL_CAP_S:
            break
    timeline.close()
    return {"latencies": timeline.scaled(), "kinds": kinds, "attempted": len(kinds),
            "failed": failed, "passes": passes}


def traced_run(workload, workloads, args):
    import tracing

    # untraced, traced, untraced: the first pass of a process also pays for
    # fresh memory, so the traced pass is compared with the second untraced
    # pass, which follows it
    plain = Timeline(ticks=False)
    kinds = []
    failed = run_pass(workload.ops, workloads, plain, kinds)
    plain.close()
    tracer = tracing.Tracer()
    traced = Timeline(ticks=False)
    tracer.install()
    try:
        failed += run_pass(workload.ops, workloads, traced, tracer=tracer)
    finally:
        tracer.uninstall()
    traced.close()
    gc.freeze()  # the spans stay alive; keep the collector off them
    again = Timeline(ticks=False)
    failed += run_pass(workload.ops, workloads, again, kinds)
    again.close()
    plain_latencies = plain.scaled() + again.scaled()
    op_seconds = [raw for raw, _, _ in traced.ops]

    cli_latencies = {}
    for kind, latency in zip(kinds, plain_latencies):
        if kind.startswith("cli-"):
            cli_latencies.setdefault(kind[len("cli-"):], []).append(latency)
    metrics = tracing.layer_metrics(tracer, op_seconds, traced.factor(), cli_latencies)
    metrics["trace.overhead_ratio"] = sum(traced.scaled()) / sum(again.scaled())

    def measure(fn):
        before = calibrate()
        start = CLOCK()
        fn()
        raw = CLOCK() - start
        return raw * CAL_REF_S / statistics.mean((before, calibrate()))

    metrics.update(tracing.scalar_microbench(args.seed, measure))
    out_dir = ROOT / "bench" / "out"
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return {"layer": metrics, "attempted": 3 * len(workload.ops), "failed": failed}


if __name__ == "__main__":
    main()
