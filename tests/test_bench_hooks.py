"""The benchmark's trace hooks still name functions of the package.

``bench/run.py --trace 1`` patches every ``(module, attribute)`` listed in
``bench/tracing.py``; a hook whose target was renamed or deleted would break
the traced run, so each one must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(m, a) for m, a, _, _ in tracing.SPANS] + [
        (m, a) for m, a, _, _ in tracing.COUNTED
    ]


def _resolves(module_name, attr):
    module = importlib.import_module(f"cuntzlab.{module_name}")
    if "." in attr:
        # the tracer swaps the method in the class's own namespace
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and callable(vars(cls).get(method))
    return callable(getattr(module, attr, None))


def test_trace_hooks_resolve():
    hooks = _hooks()
    assert hooks
    missing = [f"{m}.{a}" for m, a in hooks if not _resolves(m, a)]
    assert missing == []
