"""The benchmark's workloads still run against the package.

``bench/workloads.py`` calls the library directly (step operators built
from entry dicts, ``evaluate_twisted``, dense cores, the CLI in process).
A change under ``src/`` that breaks one of those calls would otherwise
show only when the benchmark runs.  Every workload is built small
(``smoke=True``) and its warm-ups and ops run twice against their verdicts,
as the passes of ``bench/child.py`` do, so state an op leaves behind (a
cache, an element's ``checked`` flag) is used once more.  Nothing under
``bench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = _workloads()


def _verdict_holds(op):
    try:
        got = op.run()
    except Exception as err:  # the verdict decides, as in bench/child.py
        return BENCH.expects_raise(op) and isinstance(err, op.expect)
    return not BENCH.expects_raise(op) and got == op.expect


@pytest.mark.parametrize("name", sorted(BENCH.BUILDERS))
def test_smoke_workload_verdicts(name):
    workload = BENCH.build(name, seed=3, smoke=True)
    assert workload.ops
    for run in (1, 2):
        wrong = [op.kind for op in workload.warmup + workload.ops if not _verdict_holds(op)]
        assert wrong == [], f"run {run}"
