"""The spanned *-algebra: products, normal forms, expectation, shifts."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, scalars, steprep
from cuntzlab.algebra import (
    AlgebraElement,
    equals,
    expand_normal_form,
    gauge_expectation,
    identity,
    isometry,
    monomial_pair,
    multiply,
    normal_form,
    rewrite_pair,
    shift_endomorphism,
    zero,
)
from cuntzlab.expr import parse_element
from cuntzlab.system import BasisMonomial, SystemSpec

from conftest import (
    PRODUCT_SPECS,
    dense_block,
    dense_vector,
    is_positive_semidefinite,
    random_coeff,
    random_element,
    random_fiber,
    random_monomial,
    vector_element,
    vector_projection,
    windowed_rewrite_pair,
)
from test_annihilation_oracle import Q8


def _cuntz_sum(spec, fiber):
    acc = zero(spec)
    for x in spec.basis(fiber):
        s = isometry(spec, x)
        acc = acc + multiply(s, s.adjoint())
    return acc


class TestRewritePair:
    def test_cross_fiber_survivors(self, e23):
        # i((0,1),2)* i((1,0),1) leaves exactly the aligned diagonal pairs
        out = rewrite_pair(e23, e23.monomial((0, 1), 2), e23.monomial((1, 0), 1))
        expected = monomial_pair(
            e23, e23.monomial((1, 0), 0), e23.monomial((0, 1), 1)
        ) + monomial_pair(e23, e23.monomial((1, 0), 1), e23.monomial((0, 1), 2))
        assert out.terms == expected.terms
        # an index past its fiber's dimension is refused, on either side
        with pytest.raises(ValueError):
            rewrite_pair(e23, BasisMonomial((1, 0), 7), e23.monomial((0, 1), 0))
        with pytest.raises(ValueError):
            rewrite_pair(e23, e23.monomial((0, 1), 0), BasisMonomial((1, 0), 7))

    def test_same_fiber_collapse(self, e23):
        x = e23.monomial((1, 0), 0)
        y = e23.monomial((1, 0), 1)
        assert rewrite_pair(e23, x, y).terms == zero(e23).terms
        assert rewrite_pair(e23, x, x).terms == identity(e23).terms

    def test_matches_product_of_isometries(self, e23, rng):
        m = e23.monomial
        # window edges of base = y'.index*dim_s - x'.index*dim_t, for x' in
        # fiber s and y' in fiber t: below zero, at least dim_t, and
        # dim_s > dim_t with the window cut at either end
        pairs = [
            (m((0, 1), 1), m((1, 0), 0)),  # base -2
            (m((0, 1), 0), m((1, 0), 1)),  # base 3 >= dim_t
            (m((2, 0), 3), m((0, 1), 2)),  # base -1, dim_s 4 > dim_t 3
            (m((2, 0), 0), m((0, 1), 0)),  # base 0, cut at dim_t
            (m((2, 0), 3), m((0, 1), 0)),  # base -9, no survivor
        ]
        pairs += [(random_monomial(e23, rng), random_monomial(e23, rng)) for _ in range(20)]
        for xp, yp in pairs:
            out = rewrite_pair(e23, yp, xp)
            direct = multiply(isometry(e23, yp).adjoint(), isometry(e23, xp))
            assert equals(direct, out)
            if xp.fiber != yp.fiber:
                # the survivors by their definition: index(x'.y) == index(y'.x)
                survivors = {
                    (x, y)
                    for x in e23.basis(xp.fiber)
                    for y in e23.basis(yp.fiber)
                    if e23.mul_basis(xp, y)[1] == e23.mul_basis(yp, x)[1]
                }
                assert {(t.left, t.right) for t in out.terms} == survivors


@pytest.mark.parametrize("name", ["e23", "tw23", "q8", "twf23"])
def test_rewrite_pair_matches_its_window(name):
    # every pair of monomials in fibers of degree at most 2, coefficients
    # compared by repr, so a float phase must agree to the bit
    spec = Q8 if name == "q8" else PRODUCT_SPECS[name]
    fibers = [f for f in itertools.product(range(3), repeat=spec.k) if sum(f) <= 2]
    monomials = [x for f in fibers for x in spec.basis(f)]
    for yp, xp in itertools.product(monomials, repeat=2):
        got = rewrite_pair(spec, yp, xp).terms
        want = windowed_rewrite_pair(spec, yp, xp).terms
        assert [(x, y, repr(c)) for c, x, y in got] == [
            (x, y, repr(c)) for c, x, y in want
        ], (yp, xp)


class TestCuntzRelations:
    def test_isometries(self, e23):
        for fiber in [(1, 0), (0, 1), (1, 1)]:
            for x in e23.basis(fiber):
                s = isometry(e23, x)
                assert equals(multiply(s.adjoint(), s), identity(e23))

    def test_orthogonal_ranges(self, e23):
        x = isometry(e23, e23.monomial((0, 1), 0))
        y = isometry(e23, e23.monomial((0, 1), 2))
        assert equals(multiply(x.adjoint(), y), zero(e23))

    def test_range_sum_is_identity(self, e23):
        for fiber in [(1, 0), (0, 1), (2, 0), (1, 1)]:
            assert equals(_cuntz_sum(e23, fiber), identity(e23))

    def test_product_homomorphism(self, e23, rng):
        for _ in range(20):
            x = random_monomial(e23, rng)
            y = random_monomial(e23, rng)
            _, xy = e23.mul_basis(x, y)
            assert equals(
                multiply(isometry(e23, x), isometry(e23, y)), isometry(e23, xy)
            )

    def test_commutation_twisted(self, tw14):
        # U V = zeta_4 V U for U = i((0,1);0), V = i((1,0);0)
        k4 = scalars.cyclotomic_field(4)
        u = isometry(tw14, tw14.monomial((0, 1), 0))
        v = isometry(tw14, tw14.monomial((1, 0), 0))
        lhs = multiply(u, v)
        rhs = multiply(v, u).scaled(k4.zeta_power(1))
        assert equals(lhs, rhs)
        assert not equals(multiply(u, v), multiply(v, u))


class TestStarAlgebraAxioms:
    def test_random_associativity(self, e23, rng):
        for _ in range(8):
            a = random_element(e23, rng)
            b = random_element(e23, rng)
            c = random_element(e23, rng)
            assert equals(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))

    def test_random_distributivity(self, e23, rng):
        for _ in range(8):
            a = random_element(e23, rng)
            b = random_element(e23, rng)
            c = random_element(e23, rng)
            assert equals(multiply(a, b + c), multiply(a, b) + multiply(a, c))

    def test_adjoint_reverses_products(self, e23, rng):
        for _ in range(8):
            a = random_element(e23, rng)
            b = random_element(e23, rng)
            assert equals(multiply(a, b).adjoint(), multiply(b.adjoint(), a.adjoint()))

    def test_adjoint_involution_and_conjugation(self, e23, rng):
        a = random_element(e23, rng)
        assert a.adjoint().adjoint().terms == a.terms
        lam = scalars.RationalComplex(0, 1)
        assert a.scaled(lam).adjoint().terms == a.adjoint().scaled(lam.conj()).terms

    def test_twisted_associativity(self, tw23, rng):
        for _ in range(5):
            a = random_element(tw23, rng)
            b = random_element(tw23, rng)
            c = random_element(tw23, rng)
            assert equals(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))


class TestNormalForm:
    def test_cuntz_sum_is_zero(self, e23):
        diff = _cuntz_sum(e23, (0, 1)) - identity(e23)
        assert normal_form(diff).is_zero()
        assert equals(_cuntz_sum(e23, (0, 1)), identity(e23))

    def test_witness_blocks(self, e24):
        # i((2,0);0) - i((0,1);0): one unit entry per degree block
        a = isometry(e24, e24.monomial((2, 0), 0)) - isometry(
            e24, e24.monomial((0, 1), 0)
        )
        nf = normal_form(a)
        assert not nf.is_zero()
        assert set(nf.blocks) == {(2, 0), (0, 1)}
        c, runs = nf.blocks.get((2, 0))
        assert c == (2, 0)
        ((row0, col0, length, coeff),) = runs
        assert (row0, col0, length) == (0, 0, 1)
        assert coeff.is_one()

    def test_raising_merges_terms(self, e23):
        # x x* at fiber (1,0) raised into the (1,1) block stays diagonal
        x = e23.monomial((1, 0), 1)
        a = multiply(isometry(e23, x), isometry(e23, x).adjoint())
        b = zero(e23)
        for j in range(3):
            _, m = e23.mul_basis(x, e23.monomial((0, 1), j))
            b = b + multiply(isometry(e23, m), isometry(e23, m).adjoint())
        assert equals(a, b)

    def test_round_trip_random(self, e23, rng):
        for _ in range(10):
            a = random_element(e23, rng, nterms=4)
            assert equals(expand_normal_form(normal_form(a)), a)

    def test_round_trip_twisted(self, tw23, rng):
        for _ in range(6):
            a = random_element(tw23, rng, nterms=3)
            assert equals(expand_normal_form(normal_form(a)), a)

    def test_zero_iff_no_blocks(self, e23):
        assert normal_form(zero(e23)).is_zero()
        assert not normal_form(identity(e23)).is_zero()


class TestEquals:
    def test_trivial_cases(self, e23):
        a = isometry(e23, e23.monomial((1, 0), 0))
        assert equals(a, a)
        assert not equals(a, isometry(e23, e23.monomial((1, 0), 1)))
        assert not equals(a, zero(e23))

    def test_cross_spec_rejected(self, e23, e24):
        with pytest.raises(ValueError):
            equals(identity(e23), identity(e24))


class TestGaugeExpectation:
    def test_keeps_degree_zero_only(self, e23):
        x = e23.monomial((1, 0), 0)
        y = e23.monomial((1, 0), 1)
        a = monomial_pair(e23, x, y) + isometry(e23, x)
        out = gauge_expectation(a)
        assert out.terms == monomial_pair(e23, x, y).terms

    def test_idempotent_and_linear(self, e23, rng):
        a = random_element(e23, rng, nterms=5)
        once = gauge_expectation(a)
        assert gauge_expectation(once).terms == once.terms
        b = random_element(e23, rng, nterms=5)
        assert (
            gauge_expectation(a + b).terms == (gauge_expectation(a) + gauge_expectation(b)).terms
        )

    def test_positive(self, e23, rng):
        # Phi(a* a) has a positive semidefinite degree-zero block
        for _ in range(5):
            a = random_element(e23, rng, nterms=3)
            nf = normal_form(gauge_expectation(multiply(a.adjoint(), a)))
            if nf.is_zero():
                continue
            ((degree, _),) = nf.blocks.items()
            assert degree == (0,) * e23.k
            assert is_positive_semidefinite(dense_block(nf, degree), e23.field)

    def test_contractive_on_monomials(self, e23):
        # expectation of a nonzero-degree monomial pair is zero
        a = monomial_pair(e23, e23.monomial((1, 1), 0), e23.monomial((0, 1), 0))
        assert gauge_expectation(a).terms == zero(e23).terms


class TestShiftEndomorphism:
    def test_zero_shift_is_identity_map(self, e23, rng):
        a = random_element(e23, rng)
        assert equals(shift_endomorphism(a, (0, 0)), a)

    def test_unital(self, e23):
        for s in [(1, 0), (0, 1), (1, 1)]:
            assert equals(shift_endomorphism(identity(e23), s), identity(e23))

    def test_multiplicative(self, e23, rng):
        s = (1, 0)
        for _ in range(5):
            a = random_element(e23, rng)
            b = random_element(e23, rng)
            lhs = shift_endomorphism(multiply(a, b), s)
            rhs = multiply(shift_endomorphism(a, s), shift_endomorphism(b, s))
            assert equals(lhs, rhs)

    def test_semigroup(self, e23, rng):
        a = random_element(e23, rng)
        lhs = shift_endomorphism(shift_endomorphism(a, (0, 1)), (1, 0))
        rhs = shift_endomorphism(a, (1, 1))
        assert equals(lhs, rhs)

    def test_intertwines_isometries(self, e23):
        # alpha_{s+t}(b) i(x) = i(x) alpha_t(b) for x in the fiber over s
        s, t = (1, 0), (0, 1)
        b = monomial_pair(e23, e23.monomial(t, 0), e23.monomial(t, 1))
        x = isometry(e23, e23.monomial(s, 0))
        lhs = multiply(shift_endomorphism(b, (1, 1)), x)
        rhs = multiply(x, shift_endomorphism(b, t))
        assert equals(lhs, rhs)


class TestVectorElements:
    def test_vector_element_linearity(self, e23):
        v = dense_vector(e23, (1, 0), [scalars.RationalComplex(2), scalars.RationalComplex(0, 1)])
        elem = vector_element(e23, v)
        manual = isometry(e23, e23.monomial((1, 0), 0)).scaled(
            scalars.RationalComplex(2)
        ) + isometry(e23, e23.monomial((1, 0), 1)).scaled(scalars.RationalComplex(0, 1))
        assert elem.terms == manual.terms

    def test_vector_projection(self, e23):
        v = dense_vector(e23, (1, 0), [scalars.RationalComplex(1), scalars.RationalComplex(1)])
        p = vector_projection(e23, v)
        assert equals(multiply(p, p), p)
        assert equals(p.adjoint(), p)
        with pytest.raises(ValueError):
            vector_projection(e23, dense_vector(e23, (1, 0), [scalars.RATIONAL.zero] * 2))


class TestAgainstStepModel:
    def test_normal_form_preserves_evaluation(self, e23, rng):
        for _ in range(10):
            a = random_element(e23, rng, nterms=4)
            b = expand_normal_form(normal_form(a))
            level = math.lcm(steprep.minimal_level(a), steprep.minimal_level(b))
            fam_a = steprep.evaluate(a, level)
            fam_b = steprep.evaluate(b, level)
            assert fam_a.equal(fam_b)

    def test_equals_agrees_with_evaluation(self, e23, rng):
        for _ in range(10):
            a = random_element(e23, rng, nterms=3)
            b = random_element(e23, rng, nterms=3)
            level = math.lcm(steprep.minimal_level(a), steprep.minimal_level(b))
            same_eval = steprep.evaluate(a - b, 2 * level).is_zero()
            if equals(a, b):
                assert same_eval
            elif not same_eval:
                assert not equals(a, b)


def four_factor_multiply(a, b):
    """``multiply`` with every scalar factor of a survivor: both term
    coefficients, the rewrite coefficient and the two basis phases."""
    spec = a.spec
    triples = []
    for ta in a.terms:
        for tb in b.terms:
            for tm in rewrite_pair(spec, ta.right, tb.left).terms:
                ph_l, x = spec.mul_basis(ta.left, tm.left)
                ph_r, y = spec.mul_basis(tb.right, tm.right)
                triples.append((ta.coeff * tb.coeff * tm.coeff * ph_l * ph_r.conj(), x, y))
    return AlgebraElement.from_terms(spec, triples)


def pooled_element(spec, rng, nterms, max_sum):
    """A random element whose terms draw both monomials from a pool of two,
    so left and right monomials repeat across terms."""
    pool = [random_monomial(spec, rng, max_sum) for _ in range(2)]
    acc = zero(spec)
    for _ in range(nterms):
        acc = acc + monomial_pair(
            spec, rng.choice(pool), rng.choice(pool), random_coeff(spec, rng)
        )
    return acc


def same_product(got, want):
    # float coefficients must agree to the bit, not within tolerance
    if got.spec.field is scalars.FLOAT:
        key = lambda e: [(t.left, t.right, repr(t.coeff.value)) for t in e.terms]
        return key(got) == key(want)
    return got == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(PRODUCT_SPECS)),
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(2, 3),
    st.booleans(),
)
def test_product_matches_four_factor_product(name, seed, adjoint_right, max_sum, pooled):
    # untwisted specs skip the three factors that are the field's one; fiber
    # sums up to 3 cut survivor windows at either end or leave them empty
    spec = PRODUCT_SPECS[name]
    rng = random.Random(seed)
    make = pooled_element if pooled else random_element
    a = make(spec, rng, rng.randint(1, 4), max_sum)
    b = make(spec, rng, rng.randint(1, 4), max_sum)
    if adjoint_right:
        b = b.adjoint()
    assert same_product(multiply(a, b), four_factor_multiply(a, b))


def four_factor_shift(a, s):
    """``shift_endomorphism`` with the term coefficient and both phases on
    every term."""
    spec = a.spec
    triples = []
    for f in range(spec.dim(s)):
        fmon = BasisMonomial(s, f)
        for t in a.terms:
            ph_l, x = spec.mul_basis(fmon, t.left)
            ph_r, y = spec.mul_basis(fmon, t.right)
            triples.append((t.coeff * ph_l * ph_r.conj(), x, y))
    return AlgebraElement.from_terms(spec, triples)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PRODUCT_SPECS)), st.integers(0, 10**6))
def test_shift_matches_four_factor_shift(name, seed):
    # untwisted specs skip the two phases, which are the field's one
    spec = PRODUCT_SPECS[name]
    rng = random.Random(seed)
    a = random_element(spec, rng, nterms=rng.randint(1, 4))
    s = random_fiber(spec, rng)
    assert same_product(shift_endomorphism(a, s), four_factor_shift(a, s))


def _pair(spec, x, y):
    return {(x, y): spec.field.one}


def _element(spec, term_map):
    """The element of a {(x, y): coeff} map, built by ``from_terms``."""
    return AlgebraElement.from_terms(spec, [(c, x, y) for (x, y), c in term_map.items()])


def _malformed_products(spec, bad):
    """(label, a, b), the term maps of two factors whose product would meet
    the malformed fiber ``bad`` in the left or the right factor on each
    rewrite path; were ``bad`` the valid (1, 0), each path would be taken
    as labelled."""
    B = BasisMonomial
    yield "identity, left", _pair(spec, B(bad, 0), B((1, 0), 1)), _pair(
        spec, B((1, 0), 1), B((0, 1), 2)
    )
    yield "identity, right", _pair(spec, B((0, 1), 0), B((1, 0), 1)), _pair(
        spec, B((1, 0), 1), B(bad, 0)
    )
    # i(y')* i(x') with y' = e(bad;1), x' = e(0,1;0): base 3 >= dim 2
    yield "empty window, left", _pair(spec, B((0, 1), 0), B(bad, 1)), _pair(
        spec, B((0, 1), 0), B((0, 1), 1)
    )
    # y' = e(0,1;2), x' = e(bad;0): base 4 >= dim 3
    yield "empty window, right", _pair(spec, B((0, 1), 0), B((0, 1), 2)), _pair(
        spec, B(bad, 0), B((1, 0), 0)
    )
    # y' = e(0,1;2), x' = e(1,0;1): base 1, survivors lx = 0, 1
    yield "window, left", _pair(spec, B(bad, 1), B((0, 1), 2)), _pair(
        spec, B((1, 0), 1), B((0, 1), 0)
    )
    yield "window, right", _pair(spec, B((0, 1), 1), B((0, 1), 2)), _pair(
        spec, B((1, 0), 1), B(bad, 0)
    )
    # a valid (1, 0) term first, so fiber-keyed lookups have seen (1, 0)
    one = spec.field.one
    two = {(B((1, 0), 0), B((0, 1), 2)): one, (B(bad, 1), B((0, 1), 2)): one}
    yield "window after a valid term, left", two, _pair(spec, B((1, 0), 1), B((0, 1), 0))
    two = {(B((0, 1), 0), B((1, 0), 0)): one, (B((0, 1), 0), B(bad, 1)): one}
    yield "identity after a valid term, right", _pair(spec, B((0, 1), 1), B((0, 1), 0)), two


MALFORMED_FIBERS = [(1.0, 0), (-1, 0)]


def _fresh(spec):
    """An equal spec with empty caches."""
    return SystemSpec(spec.gen_dims, spec.theta, spec.scalar_mode)


@pytest.mark.parametrize("name", ["e23", "tw23"])
@pytest.mark.parametrize("bad", MALFORMED_FIBERS, ids=repr)
def test_multiply_rejects_malformed_fibers(name, bad):
    _assert_multiply_rejects(PRODUCT_SPECS[name], bad)


@pytest.mark.parametrize("name", ["e23", "tw23"])
@pytest.mark.parametrize("bad", MALFORMED_FIBERS, ids=repr)
def test_multiply_rejects_malformed_fibers_on_warm_cache(name, bad):
    # the spec's fiber quadruple cache already holds the (1, 0) quadruples
    # that each malformed product would look up
    spec = _fresh(PRODUCT_SPECS[name])
    for _, a, b in _malformed_products(spec, (1, 0)):
        multiply(_element(spec, a), _element(spec, b))
    assert any((1, 0) in quad for quad in spec.fiber_quads)
    _assert_multiply_rejects(spec, bad)


def _assert_rejected(spec, term_map):
    # (1.0, 0) hashes and compares like (1, 0), so only a check of every
    # key, not a cache miss, can reject it
    with pytest.raises(ValueError):
        _element(spec, term_map)


def _assert_multiply_rejects(spec, bad):
    # the factor that holds ``bad`` cannot be built, so no product meets it
    for label, a, b in _malformed_products(spec, bad):
        bad_side, good_side = (a, b) if label.endswith("left") else (b, a)
        if "after a valid term" in label and bad == (1.0, 0):
            first = next(iter(bad_side))
            assert all(type(c) is int for c in first[0].fiber + first[1].fiber)
        _element(spec, good_side)
        _assert_rejected(spec, bad_side)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PRODUCT_SPECS)), st.integers(0, 10**6))
def test_product_same_on_cold_and_warm_cache(name, seed):
    # a spec's fiber quadruple cache is filled by earlier products; what
    # it holds must not change a later product, to the bit on float
    cold, warm = _fresh(PRODUCT_SPECS[name]), _fresh(PRODUCT_SPECS[name])
    rng = random.Random(seed)
    a = random_element(cold, rng, rng.randint(1, 4), 3)
    b = random_element(cold, rng, rng.randint(1, 4), 3)

    def on_warm(e, coeff=lambda t: t.coeff):
        return AlgebraElement.from_terms(warm, [(coeff(t), t.left, t.right) for t in e.terms])

    # unrelated products, the last on the monomials of a and b with other
    # coefficients, so it fills every quadruple that a*b looks up
    for _ in range(3):
        multiply(random_element(warm, rng, 4, 3), random_element(warm, rng, 4, 3))
    multiply(on_warm(a, lambda t: t.coeff * 3), on_warm(b, lambda t: -t.coeff))
    seen = set(warm.fiber_quads)
    want = multiply(a, b)
    assert set(cold.fiber_quads) <= seen
    assert same_product(multiply(on_warm(a), on_warm(b)), want)


def _windowed_pairs(a, b):
    return sum(
        1 for ta in a.terms for tb in b.terms if rewrite_pair(a.spec, ta.right, tb.left).terms
    )


@pytest.mark.parametrize("name", ["tw23", "tw23q8"])
def test_warm_twisted_product_work(name, monkeypatch):
    # a repeated product looks up no phase and spends at most two field
    # multiplications per term pair with survivors: c_a*c_b and the one
    # folded phase of its fiber quadruple
    spec = _fresh(PRODUCT_SPECS[name])
    rng = random.Random(20261018)
    a = random_element(spec, rng, nterms=8, max_sum=3)
    b = random_element(spec, rng, nterms=8, max_sum=3).adjoint()
    pairs = _windowed_pairs(a, b)
    assert pairs >= 8
    want = multiply(a, b)
    counts = {"phases": 0, "muls": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(SystemSpec, "multiplier", counted("phases", SystemSpec.multiplier))
    monkeypatch.setattr(SystemSpec, "_phase", counted("phases", SystemSpec._phase))
    # each field's values carry their own arithmetic
    values = spec.field.value_type
    mul = counted("muls", values.__mul__)
    monkeypatch.setattr(values, "__mul__", mul)
    monkeypatch.setattr(values, "__rmul__", mul)
    assert multiply(a, b) == want
    assert counts["phases"] == 0
    assert 0 < counts["muls"] <= 2 * pairs


@pytest.mark.parametrize("name", ["tw23", "tw23q8"])
def test_raising_skips_unit_phases(name, monkeypatch):
    # raising makes one phase product per fiber pair and scales a term only
    # when its pair's phase is not one: in degree (1,0), c = (1,1) raises
    # ((1,1),(0,1)) by r = 0 (phase one) and ((1,0),(0,0)) by r = (0,1),
    # whose phase omega((1,0),(0,1)) is a nontrivial root of unity
    spec = PRODUCT_SPECS[name]
    B, one = BasisMonomial, spec.field.one
    acc = {(B((1, 1), j), B((1, 1), j)): one for j in range(6)}
    acc.update({(B((1, 1), j), B((0, 1), j)): one for j in range(3)})
    acc[B((1, 0), 1), B((0, 0), 0)] = one
    a = _element(spec, acc)
    phase = spec.multiplier((1, 0), (0, 1))
    assert not phase.is_one()
    muls = []
    values = spec.field.value_type
    real_mul = values.__mul__

    def counted(x, y):
        muls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(values, "__mul__", counted)
    monkeypatch.setattr(values, "__rmul__", counted)
    nf = normal_form(a)
    assert len(muls) == 3 + 1  # three fiber pairs, one term with a phase
    c, runs = nf.blocks[(1, 0)]
    assert c == (1, 1)
    assert (3, 0, 3, phase) in runs


@pytest.mark.parametrize("name", ["e23", "tw23"])
@pytest.mark.parametrize("bad", MALFORMED_FIBERS, ids=repr)
def test_shift_rejects_malformed_fibers(name, bad):
    # an element with a malformed fiber cannot be built, and a malformed
    # shift fiber is refused, also after the valid (1, 0) shift
    spec = _fresh(PRODUCT_SPECS[name])
    B = BasisMonomial
    one = spec.field.one
    for term_map in [
        _pair(spec, B(bad, 0), B((0, 1), 0)),
        _pair(spec, B((0, 1), 0), B(bad, 1)),
        {(B((1, 0), 0), B((0, 1), 0)): one, (B(bad, 1), B((0, 1), 0)): one},
    ]:
        _assert_rejected(spec, term_map)
    a = _element(spec, {(B((1, 0), 0), B((0, 1), 0)): one, (B((1, 0), 1), B((0, 0), 0)): one})
    shift_endomorphism(a, (1, 0))
    with pytest.raises(ValueError):
        shift_endomorphism(a, bad)


def _valid_then_bad(spec, bad):
    """The term map whose second key has the malformed right fiber ``bad``,
    after a valid key of the fiber pair ((0, 1), (1, 0)); and its twin with
    (1, 0) in place of ``bad``, which for (1.0, 0) is equal."""
    B, one = BasisMonomial, spec.field.one

    def build(fiber):
        return {(B((0, 1), 0), B((1, 0), 0)): one, (B((0, 1), 0), B(fiber, 1)): one}

    return build(bad), build((1, 0))


def _element_uses(spec):
    """What a built element goes through: ``minimal_level``, ``evaluate``,
    ``normal_form``, ``equals``, and ``multiply`` on either side."""
    probe = monomial_pair(spec, BasisMonomial((1, 0), 1), BasisMonomial((0, 1), 2))
    return [
        steprep.minimal_level,
        steprep.evaluate,
        normal_form,
        lambda a: equals(a, probe),
        lambda a: multiply(a, probe),
        lambda a: multiply(probe, a),
    ]


@pytest.mark.parametrize("bad", MALFORMED_FIBERS, ids=repr)
@pytest.mark.parametrize("twin_first", [False, True])
def test_fiber_checks_reject_malformed_after_valid_term(bad, twin_first):
    # every key is checked, so a malformed fiber that hashes like (1, 0) is
    # caught after a valid term of its fiber pair, also once an equal
    # element with valid fibers has been built and used; a rejected build
    # leaves nothing behind that lets a second one through
    spec = _fresh(PRODUCT_SPECS["e23"])
    bad_map, twin_map = _valid_then_bad(spec, bad)
    first = next(iter(bad_map))[1].fiber
    assert first == (1, 0) and all(type(c) is int for c in first)
    assert (bad_map == twin_map) == (bad == (1.0, 0))
    if twin_first:
        twin = _element(spec, twin_map)
        for use in _element_uses(spec):
            use(twin)
    _assert_rejected(spec, bad_map)
    _assert_rejected(spec, bad_map)


def _count_fiber_checks(monkeypatch):
    calls = []
    real = SystemSpec.check_fiber

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(SystemSpec, "check_fiber", counted)
    return calls


def test_fibers_checked_once_per_element(monkeypatch):
    # construction checks both fibers of every term once; evaluation,
    # products, normal forms and equality of built elements check none
    spec = _fresh(PRODUCT_SPECS["e23"])
    rng = random.Random(20261019)
    built = random_element(spec, rng, nterms=5)
    calls = _count_fiber_checks(monkeypatch)
    a = AlgebraElement.from_terms(spec, [(t.coeff, t.left, t.right) for t in built.terms])
    assert len(calls) == 2 * len(a.terms)
    del calls[:]
    b = AlgebraElement.from_terms(spec, [(t.coeff, t.right, t.left) for t in built.terms])
    assert len(calls) == 2 * len(b.terms)
    del calls[:]
    steprep.evaluate(a)
    steprep.evaluate(a, 2 * steprep.minimal_level(a))
    for x, y in [(a, a), (a, b), (b, a)]:
        ab = multiply(x, y)
        normal_form(ab)
        equals(ab, a + b)
        equals(x, y)
    assert calls == []


def test_from_terms_sums_repeated_cells_by_sweep(e23, monkeypatch):
    # each triple is a one-entry run of its fiber pair, and each pair's runs
    # go to ``runs.sweep`` in the order given, so the repeated cell is
    # summed there; nothing is joined by ``_build``
    swept = []

    def sweep(runs):
        swept.append(list(runs))
        return real(runs)

    def build(pairs):
        raise AssertionError("from_terms called _build")

    real = algebra.sweep
    monkeypatch.setattr(algebra, "sweep", sweep)
    monkeypatch.setattr(algebra, "_build", build)
    m, one = e23.monomial, e23.field.one
    x, y, z = m((1, 0), 1), m((0, 1), 2), m((1, 0), 0)
    a = AlgebraElement.from_terms(e23, [(1, x, y), (2, z, e23.identity_monomial), (3, x, y)])
    assert swept == [[(1, 2, 1, one), (1, 2, 1, 3 * one)], [(0, 0, 1, 2 * one)]]
    assert a == monomial_pair(e23, x, y, 4) + monomial_pair(e23, z, e23.identity_monomial, 2)


def test_parsed_elements_multiply_without_fiber_checks(monkeypatch):
    spec = _fresh(PRODUCT_SPECS["e23"])
    a = parse_element(spec, "(1/2-3i)*e(1,0;1)*e(0,1;2)' + e(1,1;5)' - 2*I")
    b = parse_element(spec, "e(0,1;2)*(e(1,0;0) + 3*e(0,1;1))'")
    c = parse_element(spec, "e(0,1;2)")
    calls = _count_fiber_checks(monkeypatch)
    multiply(a, b)
    multiply(b, c.adjoint())
    multiply(c, c)
    normal_form(a - b)
    equals(a, multiply(a, identity(spec)))
    steprep.evaluate(b)
    assert calls == []


def test_invalid_monomials_rejected_at_construction(e23):
    B, one, e = BasisMonomial, e23.field.one, e23.identity_monomial
    for key in [
        # the only left fiber of its degree, so raising it would add r = 0
        (B((-1, 0), 0), B((0, 0), 0)),
        (B((1, 0), 5), e),  # past dim 2
        (B((1, 0), -1), e),
        (B((1, 0), 1.0), e),  # hashes like index 1
        (e, B((0, 1), 1.0)),
    ]:
        with pytest.raises(ValueError):
            AlgebraElement.from_terms(e23, [(one, *key)])
        with pytest.raises(ValueError):
            monomial_pair(e23, *key)
    with pytest.raises(ValueError):
        e23.monomial((1, 0), 1.0)
    # every term is checked, also one whose key equals an earlier valid one
    with pytest.raises(ValueError):
        AlgebraElement.from_terms(e23, [(one, B((1, 0), 1), e), (one, B((1, 0), 1.0), e)])


def test_no_public_constructor(e23):
    # elements come from ``from_terms`` and the package's kernels only
    with pytest.raises(TypeError):
        AlgebraElement(e23, {(BasisMonomial((1, 0), 0), e23.identity_monomial): 1})


def _monomial_candidates(spec):
    """The valid (fiber, index) pairs of fibers with coordinate sum at most
    2, and invalid ones: a float, negative or missing coordinate, or an
    index at the dimension, below zero or a float."""
    fibers = [f for f in itertools.product(range(3), repeat=spec.k) if sum(f) <= 2]
    valid = [(f, j) for f in fibers for j in range(spec.dim(f))]
    invalid = [((1.0, 0), 0), ((-1, 0), 0), ((0,), 0), ((0, 0, 0), 0), ((0, 1.0), 0)]
    for f in fibers:
        invalid += [(f, spec.dim(f)), (f, -1), (f, 1.0), (f, 0.0)]
    return valid, invalid


MONOMIAL_CANDIDATES = {name: _monomial_candidates(spec) for name, spec in PRODUCT_SPECS.items()}


def _rejected(spec, monomial):
    try:
        spec.monomial(*monomial)
    except ValueError:
        return True
    return False


def test_construction_raises_exactly_on_rejected_monomials():
    # a key with a zero coefficient is checked too; keys that hash alike
    # collapse in the map, so the verdict is taken over the map's own keys
    verdicts = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(PRODUCT_SPECS)), st.data())
    def check(name, data):
        spec = PRODUCT_SPECS[name]
        valid, invalid = MONOMIAL_CANDIDATES[name]

        def drawn():
            pool = invalid if data.draw(st.integers(0, 5)) == 0 else valid
            return BasisMonomial(*data.draw(st.sampled_from(pool)))

        coeffs = st.sampled_from([spec.field.zero, spec.field.one])
        term_map = {
            (drawn(), drawn()): data.draw(coeffs) for _ in range(data.draw(st.integers(1, 4)))
        }
        want = any(_rejected(spec, m) for key in term_map for m in key)
        verdicts.append(want)
        kept = {key for key, c in term_map.items() if not c.is_zero()}
        if want:
            with pytest.raises(ValueError):
                _element(spec, term_map)
        else:
            assert {(t.left, t.right) for t in _element(spec, term_map).terms} == kept

    check()
    assert set(verdicts) == {True, False}


def _inner_pairs(spec):
    """The pairs (y', x') of monomials with fibers of sum at most 2, by the
    survivors of i(y')* i(x'): a multiple of the identity, none, a window
    cut at an end, or all dim(x') of them."""
    fibers = [f for f in itertools.product(range(3), repeat=spec.k) if sum(f) <= 2]
    monomials = [m for f in fibers for m in spec.basis(f)]
    kinds = {"identity": [], "empty": [], "cut": [], "full": []}
    for yp in monomials:
        for xp in monomials:
            terms = rewrite_pair(spec, yp, xp).terms
            if not terms:
                kind = "empty"
            elif yp.fiber == xp.fiber:
                kind = "identity"
            else:
                kind = "cut" if len(terms) < spec.dim(xp.fiber) else "full"
            kinds[kind].append((yp, xp))
    return {kind: pairs for kind, pairs in kinds.items() if pairs}


INNER_PAIRS = {name: _inner_pairs(spec) for name, spec in PRODUCT_SPECS.items()}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PRODUCT_SPECS)), st.data())
def test_one_term_product_matches_four_factor_product(name, data):
    # a one-term by one-term product emits its survivors without a dict or
    # a sort; it must still agree with the four-factor product, to the bit
    # on float, on every window kind, through adjoints and factors built by
    # ``monomial_pair`` or ``from_terms``, and prune a float coefficient
    # below the zero tolerance
    spec = PRODUCT_SPECS[name]
    kind = data.draw(st.sampled_from(sorted(INNER_PAIRS[name])), label="kind")
    y_prime, x_prime = data.draw(st.sampled_from(INNER_PAIRS[name][kind]), label="pair")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    x, y = random_monomial(spec, rng, 2), random_monomial(spec, rng, 2)
    tiny = spec.field is scalars.FLOAT and data.draw(st.booleans(), label="tiny")

    def coeff():
        c = random_coeff(spec, rng)
        while c.is_zero():
            c = random_coeff(spec, rng)
        return scalars.FloatComplex(c.value * 1e-6) if tiny else c

    def pair(left, right, adjoint, by_pair):
        if adjoint:
            left, right = right, left
        make = monomial_pair if by_pair else lambda s, l, r, c: AlgebraElement.from_terms(s, [(c, l, r)])
        e = make(spec, left, right, coeff())
        return e.adjoint() if adjoint else e

    flags = [data.draw(st.booleans()) for _ in range(4)]
    a = pair(x, y_prime, flags[0], flags[1])
    b = pair(x_prime, y, flags[2], flags[3])
    got = multiply(a, b)
    assert same_product(got, four_factor_multiply(a, b))
    if tiny or kind == "empty":
        assert got.terms == ()
    else:
        assert got.terms
