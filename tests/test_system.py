"""Product-system data: fibers, basis products, multipliers, spec files."""

from fractions import Fraction

import pytest

from cuntzlab import scalars
from cuntzlab.system import (
    BasisMonomial,
    ConfigurationError,
    SpecFormatError,
    SystemSpec,
    add_fibers,
    max_fiber,
    parse_spec_text,
    sub_degree,
)

from conftest import dense_vector, inner, random_monomial, unit_vector


class TestDimensions:
    def test_dim_is_multiplicative(self, e23):
        assert e23.dim((0, 0)) == 1
        assert e23.dim((1, 0)) == 2
        assert e23.dim((0, 1)) == 3
        assert e23.dim((2, 1)) == 12
        assert e23.dim((3, 2)) == 8 * 9

    def test_monomial_validation(self, e23):
        x = e23.monomial((1, 1), 5)
        assert x == BasisMonomial((1, 1), 5)
        with pytest.raises(ValueError):
            e23.monomial((1, 1), 6)
        with pytest.raises(ValueError):
            e23.monomial((1, 1), -1)
        with pytest.raises(ValueError):
            e23.monomial((1,), 0)
        with pytest.raises(ValueError):
            e23.monomial((-1, 0), 0)

    def test_fiber_refuses_bools(self, e23):
        # True is an int that prints as "True", so a monomial of fiber
        # (True, 0) would print text the parser refuses
        with pytest.raises(ValueError) as err:
            e23.monomial((True, 0), 1)
        assert str(err.value) == "(True, 0) is not an N^2 element"
        with pytest.raises(ValueError):
            e23.dim((1, False))

    def test_index_refuses_bools(self, e23):
        with pytest.raises(ValueError) as err:
            e23.monomial((1, 0), True)
        assert str(err.value) == "index True out of range for fiber (1, 0) (dimension 2)"

    def test_monomial_is_its_fiber_index_tuple(self):
        # a NamedTuple: a dict keyed by monomials and one keyed by plain
        # (fiber, index) pairs find each other's keys
        x = BasisMonomial((1, 1), 5)
        assert x == ((1, 1), 5) and hash(x) == hash(((1, 1), 5))
        assert {((1, 1), 5): "pair"}[x] == "pair"
        assert tuple(x) == ((1, 1), 5) and x[0] == x.fiber and len(x) == 2
        assert BasisMonomial((0, 1), 2) < BasisMonomial((1, 0), 0)
        assert repr(x) == "e(1,1;5)"

    def test_unit_fiber(self, e23):
        assert e23.unit_fiber(0) == (1, 0)
        assert e23.unit_fiber(1) == (0, 1)
        with pytest.raises(ValueError):
            e23.unit_fiber(2)

    def test_fiber_helpers(self):
        assert add_fibers((1, 2), (3, 0)) == (4, 2)
        assert sub_degree((1, 2), (3, 0)) == (-2, 2)
        assert max_fiber((1, 2), (3, 0)) == (3, 2)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            SystemSpec((2, 0))
        with pytest.raises(ConfigurationError):
            SystemSpec(())

    @pytest.mark.parametrize(
        "theta,message",
        [
            ([[0, 1]], "theta must be a 2x2 matrix"),
            ([[0, 1], [0]], "theta must be a 2x2 matrix"),
            ([[0, "1/4"], [0, 0]], "theta entries must be numbers, got '1/4'"),
            ([[0, None], [0, 0]], "theta entries must be numbers, got None"),
            ([[0, True], [0, 0]], "theta entries must be numbers, got True"),
        ],
    )
    def test_theta_validation(self, theta, message):
        with pytest.raises(ConfigurationError) as err:
            SystemSpec((2, 3), theta=theta, scalar_mode="cyclotomic:4")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "dims", [(2.7, 3), ("2", "3"), (2, 3.0), (Fraction(2), 3), (2, None), (True, 3)]
    )
    def test_dimensions_must_be_ints(self, dims):
        # int() would make (2.7, 3) the (2, 3) system and read "2"; a bool
        # is an int that prints as "True"
        with pytest.raises(ConfigurationError, match="must be ints"):
            SystemSpec(dims)


class TestBasisProducts:
    def test_lexicographic_index(self, e23):
        # (r, j)(s, k) lands at index j*dim(s) + k
        x = e23.monomial((1, 0), 1)
        y = e23.monomial((0, 1), 2)
        phase, prod = e23.mul_basis(x, y)
        assert phase.is_one()
        assert prod == BasisMonomial((1, 1), 5)

    def test_identity_monomial(self, e23):
        e = e23.identity_monomial
        x = e23.monomial((1, 1), 4)
        assert e23.mul_basis(e, x)[1] == x
        assert e23.mul_basis(x, e)[1] == x

    def test_associative_untwisted(self, e23, rng):
        for _ in range(30):
            x = random_monomial(e23, rng)
            y = random_monomial(e23, rng)
            z = random_monomial(e23, rng)
            _, xy = e23.mul_basis(x, y)
            _, left = e23.mul_basis(xy, z)
            _, yz = e23.mul_basis(y, z)
            _, right = e23.mul_basis(x, yz)
            assert left == right

    def test_associative_twisted_vectors(self, tw23, rng):
        # phases must compose associatively too
        for _ in range(20):
            u = unit_vector(tw23, random_monomial(tw23, rng))
            v = unit_vector(tw23, random_monomial(tw23, rng))
            w = unit_vector(tw23, random_monomial(tw23, rng))
            a = tw23.mul_vectors(tw23.mul_vectors(u, v), w)
            b = tw23.mul_vectors(u, tw23.mul_vectors(v, w))
            assert a.fiber == b.fiber
            assert all((p - q).is_zero() for p, q in zip(a.coeffs, b.coeffs))


class TestMultiplier:
    def test_untwisted_is_one(self, e23):
        assert e23.multiplier((1, 0), (0, 1)).is_one()
        assert not e23.is_twisted

    def test_bicharacter_in_each_slot(self, tw23):
        # omega(s, t+u) = omega(s, t) omega(s, u), and same on the left
        fibers = [(1, 0), (0, 1), (1, 1), (2, 0)]
        for s in fibers:
            for t in fibers:
                for u in fibers:
                    lhs = tw23.multiplier(s, add_fibers(t, u))
                    rhs = tw23.multiplier(s, t) * tw23.multiplier(s, u)
                    assert (lhs - rhs).is_zero()
                    lhs = tw23.multiplier(add_fibers(t, u), s)
                    rhs = tw23.multiplier(t, s) * tw23.multiplier(u, s)
                    assert (lhs - rhs).is_zero()

    def test_quarter_twist_value(self, tw14):
        # theta_21 = 1/4: omega((0,1),(1,0)) = i, transposed pairing trivial
        k4 = scalars.cyclotomic_field(4)
        assert tw14.multiplier((0, 1), (1, 0)) == k4.zeta_power(1)
        assert tw14.multiplier((1, 0), (0, 1)).is_one()

    def test_modulus_one(self, tw23):
        z = tw23.multiplier((1, 1), (2, 1))
        assert (z * z.conj()).is_one()


@pytest.mark.parametrize("name", ["e23", "tw23"])
def test_caches_keep_validation(name, request):
    # (1.0, 0) hashes and compares equal to (1, 0): a cache consulted before
    # check_fiber would answer for it
    spec = request.getfixturevalue(name)
    assert spec.dim((1, 0)) == 2
    phase = spec.multiplier((1, 0), (0, 1))
    assert spec.multiplier((1, 0), (0, 1)) == phase
    for bad in [(1.0, 0), (-1, 0), (1,)]:
        with pytest.raises(ValueError):
            spec.dim(bad)
    with pytest.raises(ValueError):
        spec.multiplier((1.0, 0), (0, 1))
    with pytest.raises(ValueError):
        spec.multiplier((1, 0), (0, 1.0))
    with pytest.raises(ValueError):
        spec.mul_basis(BasisMonomial((1.0, 0), 0), BasisMonomial((0, 1), 0))
    with pytest.raises(ValueError):
        spec.mul_basis(BasisMonomial((1, 0), 0), BasisMonomial((0, 1.0), 0))
    assert spec.dim((1, 0)) == 2 and spec.multiplier((1, 0), (0, 1)) == phase


class TestInnerProduct:
    def test_orthonormal_basis(self, e23):
        v = unit_vector(e23, e23.monomial((0, 1), 0))
        w = unit_vector(e23, e23.monomial((0, 1), 2))
        assert inner(e23, v, v).is_one()
        assert inner(e23, v, w).is_zero()

    def test_conjugate_linear_second_slot(self, e23):
        lam = scalars.RationalComplex(0, 1)
        v = dense_vector(e23, (1, 0), [scalars.RationalComplex(1), scalars.RationalComplex(2)])
        w = dense_vector(e23, (1, 0), [scalars.RationalComplex(1, 1), scalars.RationalComplex(0)])
        scaled = dense_vector(e23, (1, 0), [lam * c for c in w.coeffs])
        assert inner(e23, v, scaled) == lam.conj() * inner(e23, v, w)
        scaled_v = dense_vector(e23, (1, 0), [lam * c for c in v.coeffs])
        assert inner(e23, scaled_v, w) == lam * inner(e23, v, w)

    def test_multiplicative_for_products(self, e23, rng):
        # <xu, yv> = <x, y><u, v> for the lexicographic product
        for _ in range(10):
            x = unit_vector(e23, random_monomial(e23, rng))
            y = unit_vector(e23, e23.monomial(x.fiber, rng.randrange(e23.dim(x.fiber))))
            u = unit_vector(e23, random_monomial(e23, rng))
            v = unit_vector(e23, e23.monomial(u.fiber, rng.randrange(e23.dim(u.fiber))))
            lhs = inner(e23, e23.mul_vectors(x, u), e23.mul_vectors(y, v))
            rhs = inner(e23, x, y) * inner(e23, u, v)
            assert (lhs - rhs).is_zero()

    def test_fiber_mismatch(self, e23):
        v = unit_vector(e23, e23.monomial((1, 0), 0))
        w = unit_vector(e23, e23.monomial((0, 1), 0))
        with pytest.raises(ValueError):
            inner(e23, v, w)


class TestFactoring:
    def test_digits_default_order(self, e23):
        # index 4 in fiber (1,1): 4 = 1*3 + 1
        x = e23.monomial((1, 1), 4)
        assert e23.factor_monomial(x) == [(0, 1), (1, 1)]

    def test_digits_reversed_order(self, e23):
        # e((0,1);p) e((1,0);q) has index p*2 + q; 4 = 2*2 + 0
        x = e23.monomial((1, 1), 4)
        assert e23.factor_monomial(x, order=(1, 0)) == [(1, 2), (0, 0)]

    def test_digits_multiply_back(self, e23, rng):
        for _ in range(25):
            x = random_monomial(e23, rng, max_sum=3)
            order = [0, 1]
            rng.shuffle(order)
            digits = e23.factor_monomial(x, order=tuple(order))
            acc = e23.identity_monomial
            for a, d in digits:
                _, acc = e23.mul_basis(acc, e23.monomial(e23.unit_fiber(a), d))
            assert acc == x


class TestSpecFiles:
    def test_parse_minimal(self):
        spec = parse_spec_text("k = 2\ndims = 2 3\n")
        assert spec.gen_dims == (2, 3)
        assert spec.field is scalars.RATIONAL
        assert not spec.is_twisted

    def test_parse_twisted(self):
        spec = parse_spec_text(
            "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"
        )
        assert spec.is_twisted
        assert spec.theta[0][1] == Fraction(1, 4)
        assert spec.field == scalars.cyclotomic_field(4)

    def test_comments_and_blank_lines(self):
        spec = parse_spec_text("# example\n\nk = 1\ndims = 5\n")
        assert spec.gen_dims == (5,)

    def test_error_carries_line_number(self):
        with pytest.raises(SpecFormatError) as exc:
            parse_spec_text("k = 2\ndims = 2 oops\n")
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("k = \u00b2\ndims = 2 3\n", "line 1: k must be a positive integer"),
            ("k = --2\ndims = 2 3\n", "line 1: k must be a positive integer"),
            ("k = 2\ndims = 2 \u00b3\n", "line 2: bad dimension"),
            ("k = 1\ndims = 2\nscalars = cyclotomic:\u00b2\n", "line 3: bad cyclotomic order"),
        ],
    )
    def test_malformed_integers_are_format_errors(self, text, message):
        # str.isdigit accepts superscripts, which int() rejects
        with pytest.raises(SpecFormatError, match=message):
            parse_spec_text(text)

    def test_unknown_key(self):
        with pytest.raises(SpecFormatError):
            parse_spec_text("k = 1\ndims = 2\ncolor = blue\n")

    def test_dims_count_mismatch(self):
        with pytest.raises((SpecFormatError, ConfigurationError)):
            parse_spec_text("k = 2\ndims = 2\n")

    def test_theta_length_mismatch(self):
        with pytest.raises((SpecFormatError, ConfigurationError)):
            parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4\nscalars = cyclotomic:4\n")

    def test_twist_needs_matching_field(self):
        # a genuine twist is not expressible with rational scalars
        with pytest.raises(SpecFormatError):
            parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/3 0 0\n")
        # and the cyclotomic order must accommodate the denominators
        with pytest.raises(ConfigurationError):
            SystemSpec((2, 3), theta=[[0, Fraction(1, 3)], [0, 0]], scalar_mode="cyclotomic:4")
