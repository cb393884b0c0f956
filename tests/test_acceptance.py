"""Acceptance battery: ten timed end-to-end checks, one test per check.

Run ``pytest -v tests/test_acceptance.py`` to get a single pass/fail line
per check.  Every identity below is verified exactly in the scalar field of
the system at hand (rationals, cyclotomics, or floats with the documented
1e-9 tolerance), and every check asserts its own wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from conftest import random_element

from cuntzlab import algebra, analysis, core, morphisms, steprep
from cuntzlab.scalars import RationalComplex
from cuntzlab.steprep import CharacterTwist
from cuntzlab.system import SystemSpec, parse_spec_text


def _within(t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit:.0f}s"


def test_criterion_01_step_relations_exact():
    # generator relations hold as exact sparse-matrix identities at several
    # base levels of the step model, including levels that do not divide
    # the fiber dimensions
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    fibers = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    units = [(1, 0), (0, 1)]
    zero, one = spec.field.zero, spec.field.one
    for base in (1, 2, 3, 6):
        eye_base = steprep.generator_operator(spec, spec.identity_monomial, base)
        for fiber in fibers:
            basis = spec.basis(fiber)
            ops = [steprep.generator_operator(spec, x, base) for x in basis]
            for i, sx in enumerate(ops):
                left = sx.conj_transpose()
                for j, sy in enumerate(ops):
                    prod = left.compose(sy)
                    if i == j:
                        assert prod.equal(eye_base)
                    else:
                        assert prod.is_zero()
            total = {}
            for sx in ops:
                for key, val in sx.compose(sx.conj_transpose()).entries.items():
                    total[key] = total.get(key, zero) + val
            lifted = base * spec.dim(fiber)
            residual_keys = set(total) | {(i, i) for i in range(lifted)}
            for key in residual_keys:
                want = one if key[0] == key[1] else zero
                assert (total.get(key, zero) - want).is_zero()
        for r in units:
            for s in units:
                for x in spec.basis(r):
                    lifted = steprep.generator_operator(spec, x, base * spec.dim(s))
                    for y in spec.basis(s):
                        phase, product = spec.mul_basis(x, y)
                        assert phase.is_one()
                        lhs = lifted.compose(
                            steprep.generator_operator(spec, y, base)
                        )
                        rhs = steprep.generator_operator(spec, product, base)
                        assert lhs.equal(rhs)
    _within(t0, 5.0)


def test_criterion_02_rewrite_matches_step_representation():
    # the symbolic rewrite of y'* x' agrees with the literal operator
    # product in the step model for every basis pair over three fibers
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    base = 6
    fibers = [(1, 0), (0, 1), (1, 1)]
    checked = 0
    for t in fibers:
        for s in fibers:
            assert (base * spec.dim(s)) % spec.dim(t) == 0
            dual = base * spec.dim(s) // spec.dim(t)
            for y_prime in spec.basis(t):
                left = steprep.generator_operator(spec, y_prime, dual).conj_transpose()
                for x_prime in spec.basis(s):
                    rhs = left.compose(
                        steprep.generator_operator(spec, x_prime, base)
                    )
                    element = algebra.rewrite_pair(spec, y_prime, x_prime)
                    family = steprep.evaluate(element, base)
                    if rhs.is_zero():
                        assert family.is_zero()
                    else:
                        assert family.single().equal(rhs)
                    checked += 1
    assert checked == 121
    _within(t0, 5.0)


def test_criterion_03_commutation_twist():
    # quarter twist: UV - zeta_4 VU has the exact zero normal form; with a
    # float twist angle the residual coefficients stay below 1e-9
    t0 = time.perf_counter()
    quarter = parse_spec_text(
        "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"
    )
    U = algebra.isometry(quarter, quarter.monomial((0, 1), 0))
    V = algebra.isometry(quarter, quarter.monomial((1, 0), 0))
    zeta = quarter.field.zeta_power(1)
    lam = quarter.multiplier((0, 1), (1, 0)) * quarter.multiplier((1, 0), (0, 1)).conj()
    assert (lam - zeta).is_zero()
    residual = algebra.multiply(U, V) - algebra.multiply(V, U).scaled(zeta)
    assert algebra.normal_form(residual).is_zero()

    theta = Fraction("0.3183098861837907")
    blurred = SystemSpec((1, 1), theta=[[0, 0], [theta, 0]], scalar_mode="float")
    Uf = algebra.isometry(blurred, blurred.monomial((0, 1), 0))
    Vf = algebra.isometry(blurred, blurred.monomial((1, 0), 0))
    lam_f = blurred.multiplier((0, 1), (1, 0)) * blurred.multiplier(
        (1, 0), (0, 1)
    ).conj()
    residual_f = algebra.multiply(Uf, Vf) - algebra.multiply(Vf, Uf).scaled(lam_f)
    worst = 0.0
    for _, (_, runs) in algebra.normal_form(residual_f).blocks.items():
        for *_, coeff in runs:
            worst = max(worst, abs(coeff.value))
    assert worst < 1e-9
    _within(t0, 1.0)


def test_criterion_04_classification():
    t0 = time.perf_counter()
    assert analysis.classify(SystemSpec((2, 3))).verdict() == "SimplePurelyInfinite"
    assert analysis.classify(SystemSpec((3, 5))).verdict() == "SimplePurelyInfinite"
    assert analysis.classify(SystemSpec((1, 5))).verdict() == "TensorCircle(5)"
    torus24 = analysis.classify(SystemSpec((2, 4)))
    assert torus24.verdict() == "TensorCircle(2)"
    assert torus24.witness == ((2, 0), (0, 1))
    torus48 = analysis.classify(SystemSpec((4, 8)))
    assert torus48.verdict() == "TensorCircle(2)"
    assert torus48.power_base == (2, 2, 3)
    _within(t0, 1.0)


def test_criterion_05_witness_separates_representations():
    # the dimension-collision witness dies in the distinguished
    # representation at every valid base level but survives the quarter
    # character twist
    t0 = time.perf_counter()
    spec = SystemSpec((2, 4))
    element, _ = analysis.nonsimplicity_witness(spec, (2, 0), (0, 1))
    for base in (4, 8, 16):
        assert steprep.evaluate(element, base).is_zero()
    quarter = CharacterTwist([RationalComplex(0, 1), RationalComplex(1, 0)])
    assert not steprep.evaluate_twisted(element, quarter).is_zero()
    _within(t0, 2.0)


def test_criterion_06_annihilating_compression():
    # the constructed unit vector w makes the compression of x y* by the
    # shifted projection of w w* exactly zero
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    x = spec.monomial((1, 0), 0)
    y = spec.monomial((0, 1), 0)
    instance = analysis.annihilation_instance(spec, [(x, y)], (1, 1))
    assert instance.shift_fiber == (1, 1)
    w = analysis.annihilating_vector(spec, instance)
    assert w.fiber == (0, 6)
    assert analysis.verify_annihilation(spec, instance, w)
    _within(t0, 60.0)


def test_criterion_07_core_coherence():
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    rng = random.Random(20240817)
    fibers = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def random_core():
        fiber = rng.choice(fibers)
        n = spec.dim(fiber)
        rows = [[spec.field.zero] * n for _ in range(n)]
        for _ in range(4):
            value = RationalComplex(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1))
            )
            rows[rng.randrange(n)][rng.randrange(n)] = value
        return core.core_element(spec, fiber, rows)

    for _ in range(50):
        a = random_core()
        step = rng.choice([(1, 0), (0, 1), (1, 1)])
        assert algebra.equals(
            core.to_algebra(spec, core.embed(spec, a, step)),
            core.to_algebra(spec, a),
        )
    for _ in range(20):
        a = random_core()
        r = rng.choice([(1, 0), (0, 1)])
        unit = algebra.isometry(spec, core.twisted_unit(spec, r))
        lhs = core.to_algebra(spec, core.corner_shift(spec, a, r))
        rhs = algebra.multiply(
            algebra.multiply(unit, core.to_algebra(spec, a)), unit.adjoint()
        )
        assert algebra.equals(lhs, rhs)
    _within(t0, 30.0)


def test_criterion_08_isomorphism_round_trip():
    t0 = time.perf_counter()
    for m, n in ((2, 2), (2, 3), (3, 2)):
        assert morphisms.verify_roundtrip(morphisms.factor_iso(m, n))

    pair = morphisms.factor_iso(2, 3)

    def swapped(assignment):
        images = {
            (a, i): assignment.image(a, i)
            for a in (1, 2)
            for i in range(assignment.source.gen_dims[a - 1])
        }
        images[2, 0], images[2, 1] = images[2, 1], images[2, 0]
        return morphisms.GeneratorAssignment(
            assignment.source, assignment.target, images
        )

    assert not morphisms.verify_roundtrip(
        morphisms.IsomorphismPair(pair.forward, swapped(pair.backward))
    )
    assert not morphisms.verify_roundtrip(
        morphisms.IsomorphismPair(swapped(pair.forward), pair.backward)
    )
    _within(t0, 60.0)


def test_criterion_09_factorization_independence():
    # extending the canonical self-assignment along either digit order
    # gives the same image for every monomial three steps deep
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    assignment = morphisms.canonical_assignment(spec)
    assert assignment.verified()
    checked = 0
    for total in range(1, 4):
        for first in range(total + 1):
            fiber = (first, total - first)
            for x in spec.basis(fiber):
                lhs = morphisms.extend(spec, assignment, x, order=(1, 2))
                rhs = morphisms.extend(spec, assignment, x, order=(2, 1))
                assert algebra.equals(lhs, rhs)
                checked += 1
    assert checked == 89
    _within(t0, 10.0)


def test_criterion_10_normal_form_evaluation_oracle():
    # the canonical rewrite never changes the operator content: evaluation
    # before and after agrees exactly on 100 random elements
    t0 = time.perf_counter()
    spec = SystemSpec((2, 3))
    rng = random.Random(20240817)
    for _ in range(100):
        a = random_element(spec, rng, nterms=4, max_sum=2)
        b = algebra.expand_normal_form(algebra.normal_form(a))
        level = math.lcm(steprep.minimal_level(a), steprep.minimal_level(b))
        fam_a = steprep.evaluate(a, level)
        fam_b = steprep.evaluate(b, level)
        assert fam_a.equal(fam_b)
    _within(t0, 30.0)
