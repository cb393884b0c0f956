"""The cuntzlab benchmark: closed-loop verdict workloads with a traced run.

    python3 bench/run.py --seed 7                      # every workload
    python3 bench/run.py --workload symbolic --seed 7 --seconds 7 --trace 0
    python3 bench/run.py --workload annihilate --seed 7 --trace 1

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else, so the command fails (exit 2) where that
source is missing.

Each workload runs in ``PARTS`` child processes started one after another
(``child.py``), never two at once, each driven by a single thread, one op
after another.  Every child sets up the whole workload and then runs every
``PARTS``-th op of each pass, so the run holds the same ops as one process
would run while a slow or fast process only sways a third of them.
``setup_s`` is the median of the children's set-up times and
``peak_rss_mb`` the largest of their peaks.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` one child prints the
per-layer metrics of a traced pass instead.
Every op's verdict is checked against a value known by construction; a
wrong verdict, an unexpected exception or an op over its limit counts as
failed and makes the command exit 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it repeat the metrics for
people, with ``fail_ratio``, the tail percentile and the input digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("symbolic", "twisted", "operators", "annihilate", "cli")
PARTS = 3
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, mode, smoke, inject, deadline, part=0, parts=1):
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--part", str(part), "--parts", str(parts)]
    if smoke:
        argv.append("--smoke")
    if inject:
        argv.append("--inject-wrong-verdict")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child passed the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies):
    """The highest percentile with at least ten ops beyond it: the 11th
    largest latency, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace, smoke, inject, deadline):
    if trace:
        reports = [spawn(workload, seed, seconds, "trace", smoke, inject, deadline)]
    else:
        parts = 1 if smoke else PARTS
        reports = [spawn(workload, seed, seconds, "run", smoke, inject and part == 0, deadline,
                         part, parts) for part in range(parts)]
    setups = [r["setup_s"] for r in reports]
    result = {"workload": workload, "digest": reports[0]["digest"], "setups": setups,
              "attempted": sum(r["attempted"] for r in reports),
              "failed": sum(r["failed"] for r in reports)}
    if any("latencies" not in r and "layer" not in r for r in reports):
        result["metrics"] = {}  # a warm-up op failed
        return result
    if trace:
        from tracing import per_layer_units

        result["metrics"] = {name: {"value": reports[0]["layer"][name], "unit": unit}
                             for name, unit in per_layer_units().items()}
        return result
    lat = [x for r in reports for x in r["latencies"]]
    tail_value, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (result["attempted"] - result["failed"]) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail_value * 1000,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    result["tail_pct"] = tail_pct
    result["passes"] = reports[0]["passes"]
    return result


def print_human(result):
    print(f"workload {result['workload']}: inputs {result['digest']}, "
          f"{result['attempted']} ops attempted" +
          (f" in {result['passes']} passes" if "passes" in result else ""))
    for name, metric in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{result['tail_pct']:.1f}: 10 of {result['attempted']} ops beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setups'])} set-ups)"
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_ratio':40s} {ratio:14.6g} ratio  ({result['failed']} of "
          f"{result['attempted']} attempted_ops failed)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one child")
    parser.add_argument("--inject-wrong-verdict", action="store_true",
                        help="self-test: expect a wrong verdict for the first op")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cuntzlab" / "__init__.py").is_file():
        print(f"error: no cuntzlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(measure(name, args.seed, args.seconds, args.trace, args.smoke,
                                   args.inject_wrong_verdict, deadline))
            print_human(results[-1])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
