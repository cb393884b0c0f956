"""``algebra.equals`` against the zero test of the built difference.

``difference_equals`` is the equality test as first written: the
structural fast path, then ``normal_form(a - b).is_zero()`` on the element
a - b.  ``equals`` merges the terms of a and -b without building that
element; it must decide the same way on random pairs, on pairs one
coefficient apart, and on pairs that are equal in O_E but not term by
term.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra
from cuntzlab.system import SystemSpec, parse_spec_text

from conftest import random_coeff, random_element

SPECS = {
    "e23": SystemSpec((2, 3)),
    "tw23q8": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 3/8 0 0\nscalars = cyclotomic:8\n"),
    "f23": SystemSpec((2, 3), theta=[[0, math.sqrt(2) - 1], [0, 0]], scalar_mode="float"),
}

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def difference_equals(a, b):
    a._require_same(b)
    if a.terms == b.terms:
        return True
    return algebra.normal_form(a - b).is_zero()


def assert_agrees(a, b):
    verdict = algebra.equals(a, b)
    assert verdict == difference_equals(a, b)
    assert algebra.equals(b, a) == verdict
    return verdict


def cuntz_sum(spec, fiber, coeff=1):
    """sum_f coeff * i(f) i(f)* over the basis of one fiber (equal to I)."""
    return algebra.AlgebraElement.from_terms(
        spec, ((coeff, f, f) for f in spec.basis(fiber))
    )


def raised(a, rng):
    """a with each term x y* rewritten as sum_f (x.f)(y.f)* over the basis of
    a randomly chosen generator fiber: equal to a in O_E, with other terms."""
    spec = a.spec
    out = algebra.zero(spec)
    for t in a.terms:
        middle = cuntz_sum(spec, rng.choice([(1, 0), (0, 1)]), t.coeff)
        left, right = algebra.isometry(spec, t.left), algebra.isometry(spec, t.right)
        out = out + algebra.multiply(algebra.multiply(left, middle), right.adjoint())
    return out


@EXAMPLES
@given(
    st.sampled_from(sorted(SPECS)), st.integers(0, 8), st.integers(0, 8), st.integers(0, 10**6)
)
def test_random_pairs(name, na, nb, seed):
    spec, rng = SPECS[name], random.Random(seed)
    a = random_element(spec, rng, nterms=na)
    b = random_element(spec, rng, nterms=nb)
    assert_agrees(a, b)
    assert assert_agrees(a, a + algebra.zero(spec))


@EXAMPLES
@given(st.sampled_from(sorted(SPECS)), st.integers(1, 6), st.integers(0, 10**6))
def test_equal_in_the_algebra_but_not_term_by_term(name, nterms, seed):
    spec, rng = SPECS[name], random.Random(seed)
    a = random_element(spec, rng, nterms=nterms)
    for b in (algebra.expand_normal_form(algebra.normal_form(a)), raised(a, rng)):
        if b.terms != a.terms:
            assert assert_agrees(a, b)


@EXAMPLES
@given(
    st.sampled_from(sorted(SPECS)),
    st.integers(1, 6),
    st.integers(0, 10**6),
    st.sampled_from(["same", "expanded", "raised"]),
)
def test_one_coefficient_perturbations(name, nterms, seed, partner):
    spec, rng = SPECS[name], random.Random(seed)
    a = random_element(spec, rng, nterms=nterms)
    b = {
        "same": a,
        "expanded": algebra.expand_normal_form(algebra.normal_form(a)),
        "raised": raised(a, rng),
    }[partner]
    # move one coefficient of b, or add a term b does not have
    if b.terms and rng.random() < 0.7:
        t = b.terms[rng.randrange(len(b.terms))]
        x, y = t.left, t.right
    else:
        x, y = spec.monomial((1, 1), rng.randrange(6)), spec.identity_monomial
    coeff = random_coeff(spec, rng)
    moved = b + algebra.monomial_pair(spec, x, y, 1 if coeff.is_zero() else coeff)
    assert not assert_agrees(a, moved)


@settings(EXAMPLES, max_examples=30)
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 1), (2, 2)]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_cuntz_sum_against_identity(name, fiber, seed, perturb):
    spec = SPECS[name]
    total = cuntz_sum(spec, fiber)
    if perturb:
        f = spec.monomial(fiber, seed % spec.dim(fiber))
        total = total + algebra.monomial_pair(spec, f, f, Fraction(1, 3))
    assert assert_agrees(total, algebra.identity(spec)) is not perturb
