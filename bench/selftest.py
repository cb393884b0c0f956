"""The benchmark's own tests, at smoke sizes (about a minute).

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric is printed with its
unit, that the size counters of a traced run repeat exactly for a seed,
that another seed changes the inputs while every verdict stays correct,
that ``symbolic`` and ``operators`` reach the same verdicts by normal
form and by step evaluation, that an injected wrong verdict makes the
command exit nonzero, and that the command refuses to run without the
package source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cuntzlab import algebra, steprep  # noqa: E402
from cuntzlab.system import SystemSpec  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py", stderr=None):
    proc = subprocess.run([sys.executable, str(script), "--smoke", "--seconds", "1", *args],
                          stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def per_workload(metrics):
    # metric names hold dots, so split off the workload name only
    out = {}
    for key, metric in metrics.items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = metric
    return out


def check_metrics(metrics, units):
    for workload in run.WORKLOADS:
        got = metrics[workload]
        assert set(got) == set(units), f"{workload}: {sorted(set(units) ^ set(got))}"
        for name, unit in units.items():
            assert got[name]["unit"] == unit, (workload, name, got[name])
            assert isinstance(got[name]["value"], (int, float)), (workload, name)


def digests(lines):
    return {line.split()[1].rstrip(":"): line.split()[3].rstrip(",")
            for line in lines if line.startswith("workload ")}


def test_end_to_end():
    code, lines = bench("--seed", "1")
    out = result(lines)
    assert code == 0 and out["correct"] and out["failed"] == 0, lines[-1]
    check_metrics(per_workload(out["metrics"]), run.END_TO_END)
    for workload in run.WORKLOADS:
        for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"):
            assert out["metrics"][f"{workload}.{name}"]["value"] > 0, (workload, name)
    assert sum("fail_ratio" in line for line in lines) == len(run.WORKLOADS)
    return digests(lines)


def test_traced(first_digests):
    runs = {}
    for seed in ("1", "1", "2"):
        code, lines = bench("--seed", seed, "--trace", "1")
        out = result(lines)
        assert code == 0 and out["correct"], lines[-1]
        check_metrics(per_workload(out["metrics"]), tracing.per_layer_units())
        runs.setdefault(seed, []).append((per_workload(out["metrics"]), digests(lines)))
    (a, da), (b, db) = runs["1"]
    units = tracing.per_layer_units()
    for workload in run.WORKLOADS:
        for name, unit in units.items():
            if unit == "count":
                assert a[workload][name]["value"] == b[workload][name]["value"], (workload, name)
    assert da == db == first_digests
    (_, d2), = runs["2"]
    for workload in run.WORKLOADS:
        assert d2[workload] != da[workload], workload
    for workload in ("symbolic", "annihilate", "operators"):
        assert a[workload]["trace.overhead_ratio"]["value"] > 0


def test_cross_route():
    for seed in (1, 2, 3):
        spec = SystemSpec((2, 3))
        log = []
        zeros, assocs = workloads.identity_instances(
            spec, random.Random(f"symbolic-{seed}"), True, log)
        for z in zeros:
            by_form = algebra.equals(z.lhs, z.rhs)
            by_steps = steprep.evaluate(z.lhs - z.rhs).is_zero()
            assert by_form == by_steps == z.expect, (seed, z.fiber)
        for inst in assocs:
            lhs = algebra.multiply(algebra.multiply(inst.a, inst.b), inst.c)
            if inst.delta is not None:
                lhs = lhs + inst.delta
            rhs = algebra.multiply(inst.a, algebra.multiply(inst.b, inst.c))
            by_form = algebra.equals(lhs, rhs)
            by_steps = steprep.evaluate(lhs - rhs).is_zero()
            assert by_form == by_steps == inst.expect, seed


def test_wrong_verdict():
    code, lines = bench("--seed", "1", "--workload", "twisted", "--inject-wrong-verdict")
    out = result(lines)
    assert code != 0 and not out["correct"] and out["failed"] >= 1, (code, lines[-1])


def test_without_source():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, lines = bench("--seed", "1", "--workload", "symbolic", cwd=bare,
                            script=bare / "bench" / "run.py", stderr=subprocess.DEVNULL)
        assert code != 0 and not lines, (code, lines)
    finally:
        shutil.rmtree(bare)


def main():
    digest = test_end_to_end()
    print("ok end-to-end metrics with units, fail_ratio 0")
    test_traced(digest)
    print("ok per-layer metrics; counters repeat for a seed; a new seed changes inputs")
    test_cross_route()
    print("ok normal form and step evaluation agree")
    test_wrong_verdict()
    print("ok an injected wrong verdict exits nonzero")
    test_without_source()
    print("ok no package source: nonzero exit, no result")


if __name__ == "__main__":
    main()
