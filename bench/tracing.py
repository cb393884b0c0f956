"""Spans and counters around the public functions of every cuntzlab module.

``Tracer.install`` replaces module attributes and class methods for the
duration of one traced pass and ``uninstall`` puts the originals back.
Calls inside the package go through module globals and class attributes,
so the wrappers see them as well as the benchmark's own calls.  Every
module that bound the same function object under some name (for example
``cli`` importing ``parse_spec_text``) is patched too.

A span records its name, start, end, parent span, the op it belongs to,
and the time its size counters took, which is excluded from the parent's
self time.  ``system.multiplier`` and ``system.mul_basis`` sit in the
innermost loops, so they get call counts and no spans; ``multiplier`` is
a leaf, so its time is also summed and taken out of the enclosing span's
self time.  Spans stay in memory and are written out when the run ends.

A layer's share is its spans' self time over the traced ops' time;
``share.bench`` is the rest: the benchmark's own code and whatever the
ops do outside any wrapped function.  Scalar arithmetic has no spans (a
wrapper per field operation would dwarf it), so its time counts in the
self time of the function that does it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

# module -> layer metrics with their units; every traced run reports all of
# them on every workload (zero where the workload never reaches the layer)
LAYER_METRICS = {
    "scalars": [("rational_mul_us", "us"), ("rational_add_us", "us"), ("cyclotomic4_mul_us", "us"),
                ("cyclotomic4_add_us", "us"), ("cyclotomic8_mul_us", "us"),
                ("cyclotomic_inv_us", "us")],
    "system": [("multiplier.calls", "count"), ("multiplier.self_s", "s"), ("mul_basis.calls", "count"),
               ("mul_vectors.calls", "count"), ("mul_vectors.self_s", "s"),
               ("mul_vectors.cells", "count"), ("parse_spec_text.self_s", "s")],
    "linalg": [("nullspace.calls", "count"), ("nullspace.self_s", "s"), ("nullspace.cells", "count"),
               ("sparse_matmul.calls", "count"), ("sparse_matmul.self_s", "s"),
               ("sparse_matmul.nnz_in", "count")],
    "algebra": [("multiply.calls", "count"), ("multiply.self_s", "s"), ("multiply.term_pairs", "count"),
                ("multiply.terms_out", "count"), ("multiply.rewrite_hit_ratio", "ratio"),
                ("rewrite_pair.self_s", "s"), ("normal_form.calls", "count"),
                ("normal_form.self_s", "s"), ("normal_form.terms_in", "count"),
                ("normal_form.cells", "count"), ("normal_form.fill", "count"),
                ("equals.calls", "count"), ("equals.self_s", "s"),
                ("shift_endomorphism.self_s", "s")],
    "steprep": [("evaluate.calls", "count"), ("evaluate.self_s", "s"),
                ("evaluate.stripe_entries", "count"), ("evaluate.nnz_out", "count"),
                ("evaluate_twisted.calls", "count"), ("evaluate_twisted.self_s", "s"),
                ("compose.calls", "count"), ("compose.self_s", "s"),
                ("vector_operator.calls", "count"), ("vector_operator.self_s", "s"),
                ("vector_operator.nnz", "count"), ("generator_operator.self_s", "s")],
    "core": [("embed.calls", "count"), ("embed.self_s", "s"), ("embed.cells", "count"),
             ("multiply_core.self_s", "s"), ("multiply_core.cells", "count"),
             ("core_equal.self_s", "s"), ("corner_shift.self_s", "s")],
    "analysis": [("annihilating_vector.calls", "count"), ("annihilating_vector.self_s", "s"),
                 ("orthogonality_steps", "count"), ("vector_dim", "count"),
                 ("vector_support", "count"), ("verify_annihilation.calls", "count"),
                 ("verify_annihilation.self_s", "s"), ("classify.self_s", "s"),
                 ("nonsimplicity_witness.self_s", "s")],
    "morphisms": [("check_relations.calls", "count"), ("check_relations.self_s", "s"),
                  ("check_relations.checked", "count"), ("verify_roundtrip.self_s", "s"),
                  ("map_element.self_s", "s"), ("factor_iso.self_s", "s")],
    "expr": [("parse_element.calls", "count"), ("parse_element.self_s", "s"),
             ("parse_element.chars", "count"), ("parse_element.terms_out", "count"),
             ("format_element.calls", "count"), ("format_element.self_s", "s"),
             ("format_element.chars", "count")],
    "cli": [("main.self_s", "s")] + [(f"{sub}_ms", "ms") for sub in (
        "normalize", "equals", "expect", "alpha", "eval", "classify", "witness", "kill", "iso",
        "relations", "selftest")],
}
SPAN_LAYERS = ("system", "linalg", "algebra", "steprep", "core", "analysis", "morphisms", "expr",
               "cli")
SHARE_NAMES = SPAN_LAYERS + ("bench",)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, metrics in LAYER_METRICS.items():
        for name, unit in metrics:
            out[f"{layer}.{name}"] = unit
    out["trace.overhead_ratio"] = "ratio"
    for layer in SHARE_NAMES:
        out[f"share.{layer}"] = "ratio"
    return out


# ---------------------------------------------------------------------------
# size counters, computed from arguments and results


def _multiply_sizes(sizes, args, kwargs, result):
    a, b = args
    pairs = len(a.terms) * len(b.terms)
    sizes["algebra.multiply.term_pairs"] += pairs
    sizes["algebra.multiply.terms_out"] += len(result.terms)
    # the (right, left) keys of a product are a Cartesian product
    sizes["algebra.multiply.distinct_pairs"] += len({t.right for t in a.terms}) * len(
        {t.left for t in b.terms})


def _normal_form_sizes(sizes, args, kwargs, result):
    (a,) = args
    spec = a.spec
    blocks = {}
    for t in a.terms:
        g = tuple(x - y for x, y in zip(t.left.fiber, t.right.fiber))
        c = blocks.get(g)
        blocks[g] = t.left.fiber if c is None else tuple(map(max, c, t.left.fiber))
    sizes["algebra.normal_form.terms_in"] += len(a.terms)
    for g, c in blocks.items():
        sizes["algebra.normal_form.cells"] += spec.dim(c) * spec.dim(
            tuple(x - y for x, y in zip(c, g)))
    for t in a.terms:
        g = tuple(x - y for x, y in zip(t.left.fiber, t.right.fiber))
        sizes["algebra.normal_form.fill"] += spec.dim(
            tuple(x - y for x, y in zip(blocks[g], t.left.fiber)))


def _evaluate_sizes(sizes, args, kwargs, result):
    a = args[0]
    spec = a.spec
    for t in a.terms:
        sizes["steprep.evaluate.stripe_entries"] += result.base_level // spec.dim(t.right.fiber)
    sizes["steprep.evaluate.nnz_out"] += sum(len(op.entries) for op in result.blocks.values())


def _embed_sizes(sizes, args, kwargs, result):
    sizes["core.embed.cells"] += len(result.matrix) ** 2


def _multiply_core_sizes(sizes, args, kwargs, result):
    sizes["core.multiply_core.cells"] += len(result.matrix) ** 3


def _annihilating_sizes(sizes, args, kwargs, result):
    spec = args[0]
    sizes["analysis.vector_dim"] += spec.dim(result.fiber)
    sizes["analysis.vector_support"] += sum(1 for c in result.coeffs if not c.is_zero())


def _mul_vectors_sizes(sizes, args, kwargs, result):
    _, v, w = args
    sizes["system.mul_vectors.cells"] += len(v.coeffs) * len(w.coeffs)


SPANS = [
    # (module, attribute or Class.method, span name, size counter)
    ("system", "SystemSpec.mul_vectors", "system.mul_vectors", _mul_vectors_sizes),
    ("system", "parse_spec_text", "system.parse_spec_text", None),
    ("linalg", "nullspace", "linalg.nullspace",
     lambda s, a, k, r: s.update({"linalg.nullspace.cells": len(a[0]) * a[1]})),
    ("linalg", "sparse_matmul", "linalg.sparse_matmul",
     lambda s, a, k, r: s.update({"linalg.sparse_matmul.nnz_in": len(a[0]) + len(a[1])})),
    ("algebra", "multiply", "algebra.multiply", _multiply_sizes),
    ("algebra", "rewrite_pair", "algebra.rewrite_pair", None),
    ("algebra", "normal_form", "algebra.normal_form", _normal_form_sizes),
    ("algebra", "equals", "algebra.equals", None),
    ("algebra", "shift_endomorphism", "algebra.shift_endomorphism", None),
    ("steprep", "evaluate", "steprep.evaluate", _evaluate_sizes),
    ("steprep", "evaluate_twisted", "steprep.evaluate_twisted", None),
    ("steprep", "StepOperator.compose", "steprep.compose", None),
    ("steprep", "vector_operator", "steprep.vector_operator",
     lambda s, a, k, r: s.update({"steprep.vector_operator.nnz": len(r.entries)})),
    ("steprep", "generator_operator", "steprep.generator_operator", None),
    ("core", "embed", "core.embed", _embed_sizes),
    ("core", "multiply_core", "core.multiply_core", _multiply_core_sizes),
    ("core", "core_equal", "core.core_equal", None),
    ("core", "corner_shift", "core.corner_shift", None),
    ("analysis", "annihilating_vector", "analysis.annihilating_vector", _annihilating_sizes),
    ("analysis", "verify_annihilation", "analysis.verify_annihilation", None),
    ("analysis", "classify", "analysis.classify", None),
    ("analysis", "nonsimplicity_witness", "analysis.nonsimplicity_witness", None),
    ("morphisms", "check_relations", "morphisms.check_relations",
     lambda s, a, k, r: s.update({"morphisms.check_relations.checked": r.checked})),
    ("morphisms", "verify_roundtrip", "morphisms.verify_roundtrip", None),
    ("morphisms", "map_element", "morphisms.map_element", None),
    ("morphisms", "factor_iso", "morphisms.factor_iso", None),
    ("expr", "parse_element", "expr.parse_element",
     lambda s, a, k, r: s.update({"expr.parse_element.chars": len(a[1]),
                                  "expr.parse_element.terms_out": len(r.terms)})),
    ("expr", "format_element", "expr.format_element",
     lambda s, a, k, r: s.update({"expr.format_element.chars": len(r)})),
    ("cli", "main", "cli.main", None),
]
COUNTED = [
    # (module, attribute, counter name, also time it)
    ("system", "SystemSpec.multiplier", "system.multiplier", True),
    ("system", "SystemSpec.mul_basis", "system.mul_basis", False),
    ("analysis", "_orthogonality_step", "analysis.orthogonality_steps", False),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, excluded seconds]
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self.timed = Counter()  # counted-only functions that are also timed
        self.sizes = Counter()
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, sizer):
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sizer is not None:
                sizer(self.sizes, args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += clock() - rec[2]
            return result

        return wrapper

    def _count_wrapper(self, name, fn, timed):
        counts, timed_total = self.counts, self.timed
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def count_and_time(*args, **kwargs):
            # a leaf: its time leaves the enclosing span's self time
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                timed_total[name] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return count_and_time if timed else count

    def _patch(self, module_name, attr, make):
        module = sys.modules[f"cuntzlab.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cuntzlab" or mod_name.startswith("cuntzlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def install(self):
        for module, attr, name, sizer in SPANS:
            self._patch(module, attr, lambda fn, n=name, s=sizer: self._span_wrapper(n, fn, s))
        for module, attr, name, timed in COUNTED:
            self._patch(module, attr, lambda fn, n=name, t=timed: self._count_wrapper(n, fn, t))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """name -> (calls, self seconds): a span's duration minus its
        children's durations and its excluded counter time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: (self.counts[name], seconds) for name, seconds in self.timed.items()}
        for i, (name, start, end, _, _, excluded) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i] - excluded)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(tracer, op_seconds, factor, cli_latencies):
    """Per-layer metrics of one traced pass.  ``op_seconds`` is the raw time
    of every traced op; ``factor`` scales raw seconds to the reference
    speed; ``cli_latencies`` maps a subcommand to its untraced latencies."""
    selfs = tracer.self_times()
    out = {}
    for layer, metrics in LAYER_METRICS.items():
        if layer == "scalars":
            continue
        for name, unit in metrics:
            key = f"{layer}.{name}"
            if name.endswith(".calls"):
                span = key[: -len(".calls")]
                out[key] = selfs.get(span, (0, 0.0))[0] or tracer.counts.get(span, 0)
            elif name.endswith(".self_s"):
                out[key] = selfs.get(key[: -len(".self_s")], (0, 0.0))[1] * factor
            elif unit == "ms":
                values = cli_latencies.get(name[: -len("_ms")], [])
                out[key] = statistics.median(values) * 1000 if values else 0.0
            else:
                out[key] = tracer.sizes.get(key, 0) + tracer.counts.get(key, 0)
    pairs = tracer.sizes.get("algebra.multiply.term_pairs", 0)
    distinct = tracer.sizes.get("algebra.multiply.distinct_pairs", 0)
    out["algebra.multiply.rewrite_hit_ratio"] = 1 - distinct / pairs if pairs else 0.0
    total = sum(op_seconds)
    shares = dict.fromkeys(SHARE_NAMES, 0.0)
    for name, (_, seconds) in selfs.items():
        shares[name.split(".")[0]] += seconds
    shares["bench"] = total - sum(shares.values())
    for layer, seconds in shares.items():
        out[f"share.{layer}"] = seconds / total if total else 0.0
    return out


# ---------------------------------------------------------------------------
# scalar microbenchmarks


def scalar_microbench(seed, measure):
    """Mean time per scalar op in microseconds on seeded operands.
    ``measure(fn)`` returns the reference-speed seconds of one call."""
    import random

    from cuntzlab.scalars import RationalComplex, cyclotomic_field

    rng = random.Random(f"scalars-{seed}")

    def frac():
        return Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 8]), rng.randint(1, 12))

    def cyc(field):
        out = field.from_fraction(frac())
        for k in range(1, field.phi):
            out = out + field.zeta_power(k) * frac()
        return out

    n = 400
    gauss = [(RationalComplex(frac(), frac()), RationalComplex(frac(), frac())) for _ in range(n)]
    q4, q8 = cyclotomic_field(4), cyclotomic_field(8)
    c4 = [(cyc(q4), cyc(q4)) for _ in range(n)]
    c8 = [(cyc(q8), cyc(q8)) for _ in range(n)]

    def binary(pairs, op):
        def run():
            for x, y in pairs:
                op(x, y)
        return run

    def inverses():
        for x, _ in c8[:100]:
            x.inv()

    cases = {
        "rational_mul_us": (binary(gauss, lambda x, y: x * y), n),
        "rational_add_us": (binary(gauss, lambda x, y: x + y), n),
        "cyclotomic4_mul_us": (binary(c4, lambda x, y: x * y), n),
        "cyclotomic4_add_us": (binary(c4, lambda x, y: x + y), n),
        "cyclotomic8_mul_us": (binary(c8, lambda x, y: x * y), n),
        "cyclotomic_inv_us": (inverses, 100),
    }
    out = {}
    for name, (fn, count) in cases.items():
        fn()  # warm-up
        out[f"scalars.{name}"] = statistics.median(measure(fn) for _ in range(7)) / count * 1e6
    return out
