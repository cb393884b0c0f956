"""The pair layout of elements, kept by every operation that returns one.

An element holds one (fx, fy, runs) per nonzero fiber pair, in canonical
pair order, each ``runs`` a non-empty tuple of runs that are sorted,
disjoint and maximal (``test_run_elements_oracle.assert_canonical``).  On
every product spec, float and twisted included, ``+``, ``-``, negation,
``multiply``, ``adjoint``, ``scaled``, ``shift_endomorphism``,
``expand_normal_form`` and ``parse_element`` return that layout.  ``==``
leaves a non-element to the other operand, is False across specs, and
compares pair sets, then each fiber pair's runs by ``runs.equal``: on the
exact fields that is ``==`` of the pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, expr, runs
from cuntzlab.algebra import AlgebraElement

from conftest import PRODUCT_SPECS
from test_run_elements_oracle import assert_canonical, cases, scale_of

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@EXAMPLES
@given(cases(), st.integers(0, 10**6))
def test_every_operation_returns_canonical_pairs(case, seed):
    spec, ta, tb = case
    a, b = AlgebraElement.from_terms(spec, ta), AlgebraElement.from_terms(spec, tb)
    results = [
        a + b,
        a - b,
        (a + b) - b,
        (a + b) - a,
        a - a,
        -a,
        algebra.multiply(a, b),
        algebra.multiply(b.adjoint(), a),
        algebra.multiply(a + b, a - b),
        a.adjoint(),
        a.scaled(scale_of(spec, seed)),
        (a + b).scaled(-1),
        algebra.shift_endomorphism(a, (1, 0)),
        algebra.shift_endomorphism(a - b, (0, 1)),
        algebra.expand_normal_form(algebra.normal_form(a + b)),
        expr.parse_element(spec, expr.format_element(a - b)),
        expr.parse_element(spec, "e(1,0;0)*e(0,1;0)' - (e(0,1;0)*e(1,0;0)')' + 2*I"),
    ]
    for got in results:
        assert type(got.pairs) is tuple
        assert_canonical(got)
    # a sum whose pairs all cancel holds no pair
    assert (a - a).pairs == () == algebra.multiply(a, algebra.zero(spec)).pairs


@EXAMPLES
@given(cases(), st.integers(0, 10**6))
def test_eq_agrees_with_pairs_and_runs_equal(case, seed):
    spec, ta, tb = case
    a, b = AlgebraElement.from_terms(spec, ta), AlgebraElement.from_terms(spec, tb)
    for x, y in [(a, a), (a, b), ((a + b) - b, a), (a, a.scaled(scale_of(spec, seed))), (a, -a)]:
        if spec.field.exact:
            want = x.pairs == y.pairs
        else:
            want = [p[:2] for p in x.pairs] == [p[:2] for p in y.pairs] and all(
                runs.equal(p[2], q[2]) for p, q in zip(x.pairs, y.pairs)
            )
        assert (x == y) == want == (y == x)
    # the same pairs on another spec
    other = next(o for _, o in sorted(PRODUCT_SPECS.items()) if o != spec)
    assert a != AlgebraElement._canonical(other, a.pairs)


def test_eq_leaves_a_non_element_to_the_other_operand():
    spec = PRODUCT_SPECS["e23"]
    one = algebra.identity(spec)
    assert one.__eq__(object()) is NotImplemented
    assert one != 1 and one != "I" and not one == None  # noqa: E711


def test_eq_is_false_across_specs():
    # the same pair layout on another spec, over another field, or twisted
    names = ["e23", "e32", "q23", "f23", "tw23", "twf23"]
    units = {name: algebra.identity(PRODUCT_SPECS[name]) for name in names}
    for name, unit in units.items():
        for other, other_unit in units.items():
            assert (unit == other_unit) == (name == other)


def test_float_eq_compares_pair_sets():
    # float elements whose pair sets differ are unequal, whether one set
    # holds the other or they have as many pairs, and so is the other way
    spec = PRODUCT_SPECS["f23"]
    m = spec.monomial

    def element(*pairs):
        return AlgebraElement.from_terms(spec, [(1.0, m(fx, 0), m(fy, 0)) for fx, fy in pairs])

    p, q, r = ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1))
    a, a_and_b, b, a_and_c = element(p), element(p, q), element(q), element(p, r)
    for x, y in [(a, a_and_b), (a, b), (a_and_b, a_and_c)]:
        assert len(x.pairs) <= len(y.pairs)
        assert x != y and y != x
    assert a == element(p) and a_and_b == element(q, p)
