"""Seeded inputs and verdict-checked operations for the five workloads.

Every workload is a list of ``Op``s that forms one *pass*.  The op shapes
(fibers, term counts, levels, the monomials of associativity factors and
rotation words, perturbed positions) are fixed per workload, so the cost
of a pass barely depends on the seed; the seed picks coefficients, which
instances are perturbed, kill and generator indices and the order of the
pass.  Every op carries the verdict it must return, known by construction:

* identities such as  sum_{x in B_f} i(x) i(x)* = I  or  (ab)c = a(bc)  hold,
  and a copy with one coefficient perturbed by a nonzero delta does not;
* an equal-dimension pair raises ``HypothesisViolationError``;
* a CLI command exits 0, 1 or 2 with a fixed verdict line.

``symbolic`` and ``operators`` build the same identity instances from the
same seed (``identity_instances``) and decide them by two routes: normal
form and step evaluation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cuntzlab import algebra, analysis, cli, core, morphisms, steprep
from cuntzlab.analysis import HypothesisViolationError
from cuntzlab.morphisms import GeneratorAssignment, IsomorphismPair
from cuntzlab.scalars import RationalComplex
from cuntzlab.system import BasisMonomial, SystemSpec, parse_spec_text

FIXTURES = Path(__file__).resolve().parent / "fixtures"

TWIST4 = "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"
TWIST8 = "k = 2\ndims = 2 3\ntheta = 0 3/8 0 0\nscalars = cyclotomic:8\n"
ROTATION = "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"


@dataclass
class Op:
    """One closed-loop operation: ``run()`` must return ``expect``, or raise
    it when ``expect`` is an exception class.  ``kind`` groups latencies."""

    kind: str
    run: Callable[[], object]
    expect: object


@dataclass
class Workload:
    ops: list  # one pass
    warmup: list  # cheap ops run once before timing
    digest: str  # hash of the seeded input choices
    pass_s: float = 1.0  # nominal reference seconds of one pass
    min_passes: int = 1


# Reference seconds of one pass at this commit.  A run holds
# round(seconds / pass) passes, at least MIN_PASSES: 3, 6, 3, 1 and 3 at
# --seconds 7, counts at which the 11th-largest latency falls inside a
# group of repeats of one op rather than at its edge (six twisted passes:
# inside the q8-assoc ops; three operators passes: inside the twelve
# zero(4,3)@x64 ops).
NOMINAL_PASS_S = {"symbolic": 2.5, "twisted": 1.4, "operators": 3.6, "annihilate": 8.0,
                  "cli": 2.6}
MIN_PASSES = {"twisted": 6, "operators": 3}


def expects_raise(op: Op) -> bool:
    return isinstance(op.expect, type) and issubclass(op.expect, BaseException)


# ---------------------------------------------------------------------------
# seeded scalars and elements


def gaussian(rng: random.Random) -> RationalComplex:
    re = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7]), rng.randint(1, 6))
    im = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return RationalComplex(re, im)


def field_scalar(spec: SystemSpec, rng: random.Random):
    """A nonzero seeded scalar of the spec's field.  A cyclotomic one is a
    rational plus a rational times a power of zeta that is not rational, so
    it always has two nonzero coordinates and costs the same to multiply
    whatever the seed."""
    if spec.scalar_mode == "rational":
        return gaussian(rng)
    field = spec.field
    half = field.order // 2
    k = rng.choice([k for k in range(field.order) if k % half])
    return field.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))) + (
        field.zeta_power(k) * Fraction(rng.randint(1, 3), rng.randint(1, 4)))


def random_fiber(spec: SystemSpec, rng: random.Random, max_sum: int):
    while True:
        fiber = tuple(rng.randint(0, max_sum) for _ in range(spec.k))
        if sum(fiber) <= max_sum:
            return fiber


def random_monomial(spec, rng, max_sum):
    fiber = random_fiber(spec, rng, max_sum)
    return BasisMonomial(fiber, rng.randrange(spec.dim(fiber)))


def _monomials(spec, max_sum):
    out = []
    for total in range(max_sum + 1):
        for fiber in sorted(f for f in _fibers(spec.k, total)):
            out += spec.basis(fiber)
    return out


def _fibers(k, total):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _fibers(k - 1, total - first):
            yield (first,) + rest


def random_element(spec, rng, nterms: int, structured: bool, max_sum: int, shape_rng=None):
    """``structured`` elements draw both sides from a pool of five
    monomials, so products share monomials and the rewrite cache hits;
    scattered ones draw each monomial afresh from every fiber up to
    ``max_sum``.  Monomials come from ``shape_rng`` (default ``rng``),
    coefficients from ``rng``."""
    shape_rng = shape_rng or rng
    monomials = _monomials(spec, max_sum)
    pool = shape_rng.sample(monomials, 5) if structured else monomials
    pairs = shape_rng.sample([(x, y) for x in pool for y in pool], nterms)
    return algebra.AlgebraElement.from_terms(
        spec, [(field_scalar(spec, rng), x, y) for x, y in pairs]
    )


def cuntz_sum(spec: SystemSpec, fiber, coeff, perturb=None):
    """coeff * sum_{x in B_fiber} i(x) i(x)*, built with ``multiply``;
    ``perturb = (j, delta)`` adds delta to the j-th term's coefficient."""
    triples = []
    for x in spec.basis(fiber):
        iso = algebra.isometry(spec, x)
        for t in algebra.multiply(iso, iso.adjoint()).terms:
            triples.append((t.coeff * coeff, t.left, t.right))
    if perturb is not None:
        j, delta = perturb
        c, x, y = triples[j]
        triples[j] = (c + delta, x, y)
    return algebra.AlgebraElement.from_terms(spec, triples)


# ---------------------------------------------------------------------------
# identity instances shared by ``symbolic`` and ``operators``


@dataclass
class ZeroInstance:
    """lhs = coeff * (Cuntz sum over ``fiber``), rhs = coeff * I."""

    fiber: tuple
    lhs: object
    rhs: object
    expect: bool


@dataclass
class AssocInstance:
    """(ab)c against a(bc); a nonzero ``delta`` element breaks the identity."""

    a: object
    b: object
    c: object
    delta: object  # None for the true identity
    structured: bool

    @property
    def expect(self) -> bool:
        return self.delta is None


def _perturb_flags(rng, count):
    """``count // 2`` of ``count`` instances perturbed, in seeded positions.
    An odd one out stays a true identity, so a perturbed result block never
    decides the peak memory of one seed and not of another."""
    flags = [i < count // 2 for i in range(count)]
    rng.shuffle(flags)
    return flags


def zero_instances(spec, rng, plan, log):
    out = []
    for fiber, count in plan:
        for perturbed in _perturb_flags(rng, count):
            coeff = field_scalar(spec, rng)
            perturb = None
            if perturbed:
                # the last term: a zero test then scans the whole block before
                # it meets the perturbed entry, as it does for a true identity,
                # so the cost does not depend on the seed
                perturb = (spec.dim(fiber) - 1, field_scalar(spec, rng))
            lhs = cuntz_sum(spec, fiber, coeff, perturb)
            rhs = algebra.identity(spec).scaled(coeff)
            log.append(f"zero {fiber} {coeff!r} {perturb!r}")
            out.append(ZeroInstance(fiber, lhs, rhs, not perturbed))
    return out


def assoc_instances(spec, rng, sizes, log, max_sum=1):
    """One instance per entry of ``sizes`` (terms of each factor).  The
    monomials of slot i are the same for every seed, so the cost of a pass
    does not depend on the seed; coefficients and perturbations do."""
    out = []
    flags = _perturb_flags(rng, len(sizes))
    for i, (nterms, perturbed) in enumerate(zip(sizes, flags)):
        structured = i % 2 == 0
        shapes = random.Random(f"assoc-{spec.gen_dims}-{i}")
        a, b, c = (
            random_element(spec, rng, nterms, structured, max_sum, shapes)
            for _ in range(3)
        )
        delta = None
        if perturbed:
            x, y = random_monomial(spec, rng, max_sum), random_monomial(spec, rng, max_sum)
            delta = algebra.monomial_pair(spec, x, y, field_scalar(spec, rng))
        log.append(f"assoc {structured} {a!r} {b!r} {c!r} {delta!r}")
        out.append(AssocInstance(a, b, c, delta, structured))
    return out


# (fiber, instances): fourteen ops of a symbolic pass sit below zero(3,3)
# and eleven above it, so the median op falls inside the zero(3,3) class
IDENTITY_PLAN = [((2, 2), 4), ((3, 2), 4), ((2, 3), 4), ((3, 3), 8), ((4, 3), 4), ((4, 4), 1)]
SMOKE_IDENTITY_PLAN = [((1, 1), 2), ((2, 1), 2)]


def identity_instances(spec, rng, smoke, log):
    plan = SMOKE_IDENTITY_PLAN if smoke else IDENTITY_PLAN
    zeros = zero_instances(spec, rng, plan, log)
    assocs = assoc_instances(spec, rng, (3, 5) if smoke else (8, 10, 10, 12), log)
    return zeros, assocs


def _assoc_symbolic(inst: AssocInstance):
    lhs = algebra.multiply(algebra.multiply(inst.a, inst.b), inst.c)
    if inst.delta is not None:
        lhs = lhs + inst.delta
    rhs = algebra.multiply(inst.a, algebra.multiply(inst.b, inst.c))
    return algebra.equals(lhs, rhs)


def _swapped_pair(pair: IsomorphismPair) -> IsomorphismPair:
    """The pair with the backward images of (2,0) and (2,1) exchanged; the
    commutation relations then fail, so the round trip must read false."""
    bwd = pair.backward
    images = dict(bwd.images)
    images[2, 0], images[2, 1] = images[2, 1], images[2, 0]
    return IsomorphismPair(pair.forward, GeneratorAssignment(bwd.source, bwd.target, images))


def _iso_ops(shapes):
    ops = []
    for m, n in shapes:
        ops.append(Op(f"iso({m},{n})", lambda m=m, n=n: morphisms.verify_roundtrip(
            morphisms.factor_iso(m, n)), True))
    m, n = shapes[0]
    ops.append(Op("iso-swapped", lambda: morphisms.verify_roundtrip(
        _swapped_pair(morphisms.factor_iso(m, n))), False))
    return ops


def _fiber_text(fiber):
    return ",".join(str(c) for c in fiber)


# ---------------------------------------------------------------------------
# workloads


def build_symbolic(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"symbolic-{seed}")
    spec = SystemSpec((2, 3))
    log = []
    zeros, assocs = identity_instances(spec, rng, smoke, log)
    ops = [
        Op(f"zero({_fiber_text(z.fiber)})", lambda z=z: algebra.equals(z.lhs, z.rhs), z.expect)
        for z in zeros
    ]
    ops += [
        Op("assoc-" + ("structured" if a.structured else "scattered"),
           lambda a=a: _assoc_symbolic(a), a.expect)
        for a in assocs
    ]
    ops += _iso_ops([(2, 2)] if smoke else [(2, 3), (3, 3), (4, 4)])
    warm_zero = zero_instances(spec, random.Random(seed), [((1, 1), 1)], [])[0]
    warmup = [Op("warmup", lambda: algebra.equals(warm_zero.lhs, warm_zero.rhs), warm_zero.expect),
              _iso_ops([(1, 2)])[0]]
    return _finish(rng, ops, warmup, log)


def _word_ops(spec, rng, count, length, log):
    """Deep words in U = e(0,1;0), V = e(1,0;0) and their adjoints on the
    rotation system UV = zeta_4 VU: a word equals zeta^k V^b U^a with k the
    sum of e*d over every U^e standing left of a V^d.  The letters of word i
    are the same for every seed; coefficients and perturbations are not."""
    field = spec.field
    gens = {
        "U": algebra.isometry(spec, BasisMonomial((0, 1), 0)),
        "V": algebra.isometry(spec, BasisMonomial((1, 0), 0)),
    }
    ops = []
    for i, perturbed in enumerate(_perturb_flags(rng, count)):
        letters = random.Random(f"word-{length}-{i}")
        word = [(letters.choice("UV"), letters.choice((1, -1))) for _ in range(length)]
        k, seen_u = 0, 0
        for name, sign in word:
            if name == "U":
                seen_u += sign
            else:
                k += seen_u * sign
        a = sum(s for n, s in word if n == "U")
        b = sum(s for n, s in word if n == "V")
        coeff = field_scalar(spec, rng)
        factors = [gens[n] if s > 0 else gens[n].adjoint() for n, s in word]
        normal = [gens["V"] if b > 0 else gens["V"].adjoint()] * abs(b)
        normal += [gens["U"] if a > 0 else gens["U"].adjoint()] * abs(a)
        phase = field.zeta_power((k + perturbed) % field.order) * coeff
        log.append(f"word {word} {coeff!r} {perturbed}")

        def run(factors=factors, normal=normal, phase=phase, coeff=coeff):
            lhs = algebra.identity(spec).scaled(coeff)
            for f in factors:
                lhs = algebra.multiply(lhs, f)
            rhs = algebra.identity(spec).scaled(phase)
            for f in normal:
                rhs = algebra.multiply(rhs, f)
            return algebra.equals(lhs, rhs)

        ops.append(Op("rotation-word", run, not perturbed))
    return ops


def _kill_op(spec, kind, x, y, shift=None, expect=True):
    def run():
        instance = analysis.annihilation_instance(spec, [(x, y)], shift)
        w = analysis.annihilating_vector(spec, instance)
        return analysis.verify_annihilation(spec, instance, w)

    return Op(kind, run, expect)


def build_twisted(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"twisted-{seed}")
    log = []
    ops = []
    t4, t8, rot = (parse_spec_text(t) for t in (TWIST4, TWIST8, ROTATION))
    zero_plan = [((1, 1), 2)] if smoke else [((2, 2), 4), ((3, 2), 4), ((2, 3), 2), ((3, 3), 2)]
    for name, spec in (("q4", t4), ("q8", t8)):
        for z in zero_instances(spec, rng, zero_plan, log):
            ops.append(Op(f"{name}-zero({_fiber_text(z.fiber)})",
                          lambda z=z: algebra.equals(z.lhs, z.rhs), z.expect))
        # four sizes, so the repeats of each instance form their own latency
        # group and the 11th-largest latency of six passes is the
        # second-smallest repeat of the 8-term q8 instance
        for a in assoc_instances(spec, rng, (3, 4) if smoke else (6, 7, 8, 9), log):
            ops.append(Op(f"{name}-assoc", lambda a=a: _assoc_symbolic(a), a.expect))
        canonical = morphisms.canonical_assignment(spec)
        ops.append(Op(f"{name}-relations", lambda s=spec, c=canonical: morphisms.check_relations(
            s, GeneratorAssignment(s, c.target, c.images)).ok, True))
        images = dict(canonical.images)
        images[2, 0], images[2, 1] = images[2, 1], images[2, 0]
        ops.append(Op(f"{name}-relations", lambda s=spec, c=canonical, im=images:
                      morphisms.check_relations(s, GeneratorAssignment(s, c.target, im)).ok, False))
    # sixteen 48-letter words (~8 ms each) form the median class of a pass:
    # eighteen cheaper ops below them, twenty-two dearer ones above
    ops += _word_ops(rot, rng, 4 if smoke else 16, 6 if smoke else 48, log)
    pairs = [((1, 0), (0, 0))] if smoke else [((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 0)),
                                              ((0, 1), (0, 0))]
    for fx, fy in pairs:
        x = BasisMonomial(fx, rng.randrange(t4.dim(fx)))
        y = BasisMonomial(fy, rng.randrange(t4.dim(fy)))
        log.append(f"kill {x!r} {y!r}")
        ops.append(_kill_op(t4, "q4-kill", x, y))
    warm = zero_instances(t4, random.Random(seed), [((1, 1), 1)], [])[0]
    warmup = [Op("warmup", lambda: algebra.equals(warm.lhs, warm.rhs), warm.expect),
              _kill_op(t4, "warmup", BasisMonomial((1, 0), 0), BasisMonomial((0, 0), 0))]
    return _finish(rng, ops, warmup, log)


def _eval_ops(kind, element, expect_zero, multipliers):
    base = steprep.minimal_level(element)
    return [
        Op(f"{kind}@x{m}", lambda lv=base * m: steprep.evaluate(element, lv).is_zero(), expect_zero)
        for m in multipliers
    ]


def _generator_ops(spec, rng, smoke, log):
    """Relations of the generator isometries as sparse step operators."""
    ops = []
    fibers = [(1, 0), (0, 1)] if smoke else [(1, 0), (0, 1), (1, 1), (0, 2)]
    levels = (1, 2) if smoke else (1, 6, 16, 64)
    for fiber in fibers:
        for level in levels:
            i = rng.randrange(spec.dim(fiber))
            j = i if rng.random() < 0.5 else rng.randrange(spec.dim(fiber))
            x, y = BasisMonomial(fiber, i), BasisMonomial(fiber, j)
            log.append(f"gen {fiber} {level} {i} {j}")

            def isometry(x=x, y=y, level=level):
                sx = steprep.generator_operator(spec, x, level)
                sy = steprep.generator_operator(spec, y, level)
                eye = steprep.generator_operator(spec, spec.identity_monomial, level)
                return sx.conj_transpose().compose(sy).equal(eye)

            ops.append(Op("gen-isometry", isometry, i == j))
            drop = rng.random() < 0.5

            def range_sum(fiber=fiber, level=level, drop=drop):
                total = {}
                basis = spec.basis(fiber)
                for x in basis[: len(basis) - drop]:
                    sx = steprep.generator_operator(spec, x, level)
                    for key, v in sx.compose(sx.conj_transpose()).entries.items():
                        total[key] = total[key] + v if key in total else v
                lifted = level * spec.dim(fiber)
                eye = steprep.generator_operator(spec, spec.identity_monomial, lifted)
                return steprep.StepOperator(lifted, lifted, total).equal(eye)

            ops.append(Op("gen-range-sum", range_sum, not drop))
    return ops


def random_core(spec, rng, fiber):
    n = spec.dim(fiber)
    rows = [[spec.field.zero] * n for _ in range(n)]
    for _ in range(max(2, n // 2)):
        rows[rng.randrange(n)][rng.randrange(n)] = gaussian(rng)
    return core.core_element(spec, fiber, rows)


def _core_ops(spec, rng, smoke, log):
    """Core coherence: embeddings are injective, traces are invariant under
    embedding and cyclic, and the corner shift scales the trace by 1/dim r."""
    ops = []
    fibers = [(0, 0), (1, 0), (0, 1)] if smoke else [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]
    for fiber in fibers:
        a, b = random_core(spec, rng, fiber), random_core(spec, rng, fiber)
        step = rng.choice([(1, 0), (0, 1)])
        r = rng.choice([(1, 0), (0, 1)])
        delta = gaussian(rng)
        log.append(f"core {fiber} {step} {r} {delta!r}")
        rows = [list(row) for row in a.matrix]
        rows[0][0] = rows[0][0] + delta
        a_off = core.CoreElement(a.fiber, tuple(tuple(row) for row in rows))
        for off in (False, True):
            other = a_off if off else a
            ops.append(Op("core-embed", lambda other=other, a=a, step=step: core.core_equal(
                spec, core.embed(spec, a, step), other), not off))
            shift = delta if off else 0

            def cyclic(a=a, b=b, shift=shift):
                ab = core.trace(spec, core.multiply_core(spec, a, b))
                ba = core.trace(spec, core.multiply_core(spec, b, a))
                return (ab - ba - shift).is_zero()

            ops.append(Op("core-trace", cyclic, not off))

            def corner(a=a, r=r, step=step, shift=shift):
                shifted = core.corner_shift(spec, core.embed(spec, a, step), r)
                want = core.trace(spec, a) * Fraction(1, spec.dim(r))
                return (core.trace(spec, shifted) - want - shift).is_zero()

            ops.append(Op("core-corner", corner, not off))
    return ops


def build_operators(seed: int, smoke: bool) -> Workload:
    # the same seed string as ``symbolic``: identical instances, decided by
    # step evaluation instead of normal forms
    rng = random.Random(f"symbolic-{seed}")
    spec = SystemSpec((2, 3))
    log = []
    zeros, assocs = identity_instances(spec, rng, smoke, log)
    rng = random.Random(f"operators-{seed}")
    mults = (1, 8) if smoke else (1, 8, 64)
    ops = []
    for z in zeros:
        ops += _eval_ops(f"zero({_fiber_text(z.fiber)})", z.lhs - z.rhs, z.expect, mults)
    for a in assocs:
        lhs = algebra.multiply(algebra.multiply(a.a, a.b), a.c)
        if a.delta is not None:
            lhs = lhs + a.delta
        diff = lhs - algebra.multiply(a.a, algebra.multiply(a.b, a.c))
        # the products hold ~10^3 terms, so 8x already costs 0.5 s per op;
        # associativity is evaluated at the minimal level only
        ops += _eval_ops("assoc", diff, a.expect, mults[:1])
    for dims in [(2, 4), (4, 8), (1, 5)]:
        wspec = SystemSpec(dims)
        s, t = analysis.classify(wspec).witness
        element, twist = analysis.nonsimplicity_witness(wspec, s, t)
        element = element.scaled(gaussian(rng))
        ops += _eval_ops(f"witness({_fiber_text(dims)})", element, True, mults)
        base = steprep.minimal_level(element)
        for m in mults:
            ops.append(Op(f"witness({_fiber_text(dims)})-twisted", lambda e=element, tw=twist, lv=base * m:
                          steprep.evaluate_twisted(e, tw, lv).is_zero(), False))
    ops += _generator_ops(spec, rng, smoke, log)
    ops += _core_ops(spec, rng, smoke, log)
    warm = zero_instances(spec, random.Random(seed), [((1, 1), 1)], [])[0]
    warmup = _eval_ops("warmup", warm.lhs - warm.rhs, warm.expect, (1,))
    return _finish(rng, ops, warmup, log)


def build_annihilate(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"annihilate-{seed}")
    log = []
    ops = []
    e23, e32, e24, e34 = (SystemSpec(d) for d in [(2, 3), (3, 2), (2, 4), (3, 4)])
    one = BasisMonomial((0, 0), 0)
    for spec in (e23, e32):
        for i in range(spec.gen_dims[0]):
            for j in range(spec.gen_dims[1]):
                if smoke and (i, j) != (0, 0):
                    continue
                ops.append(_kill_op(spec, f"kill({_fiber_text(spec.gen_dims)})-pair",
                                    BasisMonomial((1, 0), i), BasisMonomial((0, 1), j)))
    against_identity = [(e23, (1, 0)), (e23, (0, 1))]
    if not smoke:
        against_identity += [(e24, (1, 0)), (e24, (0, 1)), (e34, (1, 0)), (e34, (0, 1)),
                             (e23, (2, 0))]
    for spec, fiber in against_identity:
        for _ in range(1 if smoke else 3):
            x = BasisMonomial(fiber, rng.randrange(spec.dim(fiber)))
            log.append(f"kill-id {spec.gen_dims} {x!r}")
            pair = (x, one) if rng.random() < 0.5 else (one, x)
            ops.append(_kill_op(spec, f"kill({_fiber_text(spec.gen_dims)})-identity", *pair))
    for _ in range(2):
        i, j = rng.randrange(2), rng.randrange(4)
        log.append(f"violation {i} {j}")
        ops.append(_kill_op(e24, "kill(2,4)-equal-dims", BasisMonomial((2, 0), i),
                            BasisMonomial((0, 1), j), expect=HypothesisViolationError))
    if not smoke:
        ops.append(_kill_op(e23, "kill(2,3)-e(1,1;0)-identity", BasisMonomial((1, 1), 0), one))
        ops.append(_kill_op(e24, "kill(2,4)-pair", BasisMonomial((1, 0), 0), BasisMonomial((0, 1), 0)))
    warmup = [_kill_op(e23, "warmup", BasisMonomial((1, 0), 0), one)]
    return _finish(rng, ops, warmup, log)


# ---------------------------------------------------------------------------
# cli


def run_cli(argv):
    """``cli.main(argv)`` with stdout and stderr captured; returns
    (exit code, stdout lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def _cli_op(argv, code, line_index, text):
    """Expect exit ``code`` and ``text`` as stdout line ``line_index``
    (``None``: stdout must be empty)."""

    def run():
        got_code, lines = run_cli(argv)
        if line_index is None:
            return got_code, None if not lines else lines
        return got_code, lines[line_index] if lines else None

    return Op("cli-usage-error" if code == 2 else f"cli-{argv[0]}", run, (code, text))


def build_cli(seed: int, smoke: bool) -> Workload:
    from cuntzlab import expr

    rng = random.Random(f"cli-{seed}")
    log = []
    spec_path = {name: str(FIXTURES / f"{name}.spec") for name in ("e23", "e24", "e48", "e15", "tw14")}
    e23 = SystemSpec((2, 3))
    ops = [_cli_op(["selftest"], 0, -1, "selftest: 32 of 32 checks passed")]
    verdicts = {"e23": "SimplePurelyInfinite", "e24": "TensorCircle(2)", "e48": "TensorCircle(2)",
                "e15": "TensorCircle(5)", "tw14": "Unknown"}
    # classify (~2 ms) is the median class: 40 of them per pass against 30
    # other ops, of which four are as cheap and 26 dearer
    for name, verdict in verdicts.items():
        for _ in range(1 if smoke else 8):
            ops.append(_cli_op(["classify", "--spec", spec_path[name]],
                               1 if verdict == "Unknown" else 0, 0, verdict))
        if name in ("e23", "tw14"):
            code, line = 1, ("no witness: the dimension function is injective" if name == "e23"
                             else "no witness: nonsimplicity witnesses require an untwisted spec")
        else:
            code, line = 0, "witness verified: true"
        ops.append(_cli_op(["witness", "--spec", spec_path[name]], code, -1, line))
    for _ in range(1 if smoke else 2):
        i, j = rng.randrange(2), rng.randrange(3)
        log.append(f"kill {i} {j}")
        ops.append(_cli_op(["kill", "--spec", spec_path["e23"], f"e(1,0;{i})", f"e(0,1;{j})"],
                           0, -1, "compressed pair: zero"))
    for m, n in [(2, 2)] if smoke else [(4, 4), (8, 8)]:
        ops.append(_cli_op(["iso", str(m), str(n)], 0, -1, "round trip: true"))
    for name, code, verdict in [("canonical", 0, "ok"), ("violated", 1, "violated")]:
        ops.append(_cli_op(["relations", "--spec", spec_path["e23"],
                            str(FIXTURES / f"e23-{name}.assign")], code, 0,
                           f"relations: {verdict} (21 checked)"))
    # fixed perturbation pattern: a perturbed zero test keeps its result
    # block, so a seeded pattern would move the peak memory between seeds
    fibers = [(1, 1), (2, 1)] if smoke else [(2, 2), (2, 3), (3, 3), (3, 4)]
    for fiber, perturbed in zip(fibers, [True, False] * 2):
        coeff = gaussian(rng)
        perturb = (rng.randrange(e23.dim(fiber)), gaussian(rng)) if perturbed else None
        text = expr.format_element(cuntz_sum(e23, fiber, coeff, perturb))
        ident = expr.format_element(algebra.identity(e23).scaled(coeff))
        log.append(f"equals {fiber} {coeff!r} {perturb!r}")
        ops.append(_cli_op(["equals", "--spec", spec_path["e23"], "--", text, ident],
                           1 if perturbed else 0, -1, "false" if perturbed else "true"))
    small = [(1, 1), (2, 1)] if smoke else [(2, 2), (3, 2)]
    for fiber, perturbed in zip(small, [True, False]):
        coeff = gaussian(rng)
        j, delta = rng.randrange(e23.dim(fiber)), gaussian(rng)
        text = expr.format_element(cuntz_sum(e23, fiber, coeff, (j, delta) if perturbed else None))
        ident = expr.format_element(algebra.identity(e23).scaled(coeff))
        x = BasisMonomial(fiber, j)
        residue = expr.format_element(algebra.monomial_pair(e23, x, x, delta)) if perturbed else "0"
        log.append(f"normalize {fiber} {coeff!r} {j} {delta!r} {perturbed}")
        ops.append(_cli_op(["normalize", "--spec", spec_path["e23"], "--", f"{text} - ({ident})"],
                           0, -1, residue))
        level = steprep.minimal_level(cuntz_sum(e23, fiber, coeff)) * 2
        ops.append(_cli_op(["eval", "--spec", spec_path["e23"], "--level", str(level), "--",
                            f"{text} - ({ident})"], 1 if perturbed else 0, -1,
                           "nonzero" if perturbed else "zero"))
        # gauge expectation drops an off-degree part; alpha_r of a Cuntz
        # sum over f is the Cuntz sum over r + f
        off = random_element(e23, rng, 4, False, 1)
        off = algebra.AlgebraElement.from_terms(
            e23, [(t.coeff, t.left, t.right) for t in off.terms if t.left.fiber != t.right.fiber])
        mixed = expr.format_element(cuntz_sum(e23, fiber, coeff) + off)
        ops.append(_cli_op(["expect", "--spec", spec_path["e23"], "--", mixed], 0, -1,
                           expr.format_element(cuntz_sum(e23, fiber, coeff))))
        r = rng.choice([(1, 0), (0, 1)])
        shifted = tuple(a + b for a, b in zip(r, fiber))
        want = expr.format_element(cuntz_sum(e23, shifted, coeff))
        ops.append(_cli_op(["alpha", "--spec", spec_path["e23"], "--", _fiber_text(r),
                            expr.format_element(cuntz_sum(e23, fiber, coeff))], 0, -1, want))
    ops.append(_cli_op(["eval", "--spec", spec_path["e24"], "e(2,0;0) - e(0,1;0)"], 0, -1, "zero"))
    ops.append(_cli_op(["eval", "--spec", spec_path["e24"], "--lambda", "i,1",
                        "e(2,0;0) - e(0,1;0)"], 1, -1, "nonzero"))
    ops += [
        _cli_op(["equals", "--spec", spec_path["e23"], "e(1,0;7)", "I"], 2, None, None),
        _cli_op(["eval", "--spec", spec_path["e23"], "--level", "5", "e(0,1;0)'"], 2, None, None),
        _cli_op(["kill", "--spec", spec_path["e23"], "2*e(1,0;0)", "e(0,1;0)"], 2, None, None),
        _cli_op(["transmogrify"], 2, None, None),
    ]
    warmup = [_cli_op(["classify", "--spec", spec_path["e15"]], 0, 0, "TensorCircle(5)")]
    return _finish(rng, ops, warmup, log)


BUILDERS = {
    "symbolic": build_symbolic,
    "twisted": build_twisted,
    "operators": build_operators,
    "annihilate": build_annihilate,
    "cli": build_cli,
}


def _finish(rng, ops, warmup, log) -> Workload:
    rng.shuffle(ops)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()[:16]
    return Workload(ops, warmup, digest)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    workload = BUILDERS[name](seed, smoke)
    workload.pass_s = NOMINAL_PASS_S[name]
    workload.min_passes = 1 if smoke else MIN_PASSES.get(name, 1)
    return workload
