"""Exact scalar arithmetic: rationals with i, cyclotomic integers, floats."""

from fractions import Fraction

import pytest

from cuntzlab.scalars import (
    FLOAT,
    RATIONAL,
    Cyclotomic,
    FloatComplex,
    RationalComplex,
    common_field,
    cyclotomic_field,
    cyclotomic_polynomial,
    field_named,
    field_of,
)


def promote_pair(x, y):
    """Both values moved into their common field."""
    f = common_field(field_of(x), field_of(y))
    return f.coerce(x), f.coerce(y)


class TestRationalComplex:
    def test_product(self):
        # (1+2i)(3-i) = 5+5i
        a = RationalComplex(1, 2)
        b = RationalComplex(3, -1)
        assert a * b == RationalComplex(5, 5)

    def test_inverse(self):
        a = RationalComplex(1, 2)
        assert a.inv() == RationalComplex(Fraction(1, 5), Fraction(-2, 5))
        assert (a * a.inv()).is_one()

    def test_division_matches_inverse(self):
        a = RationalComplex(Fraction(3, 2), -1)
        b = RationalComplex(2, 5)
        assert a / b == a * b.inv()

    def test_conj(self):
        assert RationalComplex(2, -3).conj() == RationalComplex(2, 3)

    def test_fraction_mixing(self):
        a = RationalComplex(Fraction(1, 2)) + Fraction(1, 3)
        assert a == RationalComplex(Fraction(5, 6))
        assert (Fraction(2) * RationalComplex(0, 1)) == RationalComplex(0, 2)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            RationalComplex(0).inv()

    def test_predicates(self):
        assert RationalComplex(0, 0).is_zero()
        assert RationalComplex(1, 0).is_one()
        assert not RationalComplex(1, 1).is_one()


class TestCyclotomicPolynomial:
    # classical coefficient tables, low degree first
    CASES = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        12: (1, 0, -1, 0, 1),
    }

    @pytest.mark.parametrize("q,coeffs", sorted(CASES.items()))
    def test_table(self, q, coeffs):
        assert cyclotomic_polynomial(q) == coeffs

    def test_degree_is_euler_phi(self):
        # phi(q) for q = 1..12
        phis = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        for q, phi in enumerate(phis, start=1):
            assert len(cyclotomic_polynomial(q)) == phi + 1


class TestCyclotomic:
    def test_gaussian_square(self):
        k4 = cyclotomic_field(4)
        i = k4.zeta_power(1)
        assert i * i == k4.from_fraction(-1)
        assert i.conj() == -i

    def test_third_root_relation(self):
        # zeta_3^2 + zeta_3 + 1 = 0
        k3 = cyclotomic_field(3)
        z = k3.zeta_power(1)
        assert (z * z + z + k3.one).is_zero()

    def test_eighth_root(self):
        k8 = cyclotomic_field(8)
        z = k8.zeta_power(1)
        assert ((z * z) * (z * z)) == k8.from_fraction(-1)
        assert (z * k8.zeta_power(7)).is_one()

    def test_inverse(self):
        k8 = cyclotomic_field(8)
        a = k8.one + k8.zeta_power(1)
        assert (a * a.inv()).is_one()
        with pytest.raises(ZeroDivisionError):
            k8.zero.inv()

    def test_conj_preserves_products(self):
        k12 = cyclotomic_field(12)
        a = k12.zeta_power(5) + k12.from_fraction(Fraction(1, 2))
        b = k12.zeta_power(7) - k12.one
        assert (a * b).conj() == a.conj() * b.conj()

    def test_modulus_one(self):
        k5 = cyclotomic_field(5)
        z = k5.zeta_power(3)
        assert (z * z.conj()).is_one()

    def test_is_rational(self):
        k4 = cyclotomic_field(4)
        assert k4.from_fraction(Fraction(7, 3)).is_rational()
        assert not k4.zeta_power(1).is_rational()

    def test_fraction_mixing(self):
        k4 = cyclotomic_field(4)
        assert k4.zeta_power(1) * Fraction(2) == k4.gaussian(0, 2, 1)


class TestRootOfUnity:
    def test_rational_quarters(self):
        assert RATIONAL.root_of_unity(Fraction(0)) == RationalComplex(1)
        assert RATIONAL.root_of_unity(Fraction(1, 4)) == RationalComplex(0, 1)
        assert RATIONAL.root_of_unity(Fraction(1, 2)) == RationalComplex(-1)
        assert RATIONAL.root_of_unity(Fraction(3, 4)) == RationalComplex(0, -1)

    def test_rational_rejects_other_orders(self):
        with pytest.raises(ValueError):
            RATIONAL.root_of_unity(Fraction(1, 3))

    def test_cyclotomic(self):
        k12 = cyclotomic_field(12)
        assert k12.root_of_unity(Fraction(1, 3)) == k12.zeta_power(4)
        assert k12.root_of_unity(Fraction(1, 4)) == k12.zeta_power(3)
        with pytest.raises(ValueError):
            k12.root_of_unity(Fraction(1, 5))

    def test_float(self):
        z = FLOAT.root_of_unity(0.25)
        assert abs(z.value - 1j) < 1e-12


class TestFloatComplex:
    def test_tolerance(self):
        assert FloatComplex(1e-10).is_zero()
        assert not FloatComplex(1e-8).is_zero()
        assert FloatComplex(1 + 1e-10j).is_one()

    def test_arithmetic(self):
        a = FloatComplex(1 + 2j)
        b = FloatComplex(3 - 1j)
        assert (a * b) == FloatComplex(5 + 5j)
        assert (a / a).is_one()
        assert a.conj() == FloatComplex(1 - 2j)


class TestFieldLattice:
    def test_coerce_up(self):
        k4 = cyclotomic_field(4)
        assert k4.coerce(RationalComplex(0, 1)) == k4.zeta_power(1)
        assert k4.coerce(Fraction(1, 2)) == k4.from_fraction(Fraction(1, 2))
        k8 = cyclotomic_field(8)
        assert k8.coerce(k4.zeta_power(1)) == k8.zeta_power(2)

    def test_coerce_down_rejected(self):
        k4 = cyclotomic_field(4)
        with pytest.raises(TypeError):
            RATIONAL.coerce(k4.zeta_power(1))

    def test_float_absorbs_everything(self):
        k4 = cyclotomic_field(4)
        z = FLOAT.coerce(k4.zeta_power(1))
        assert abs(z.value - 1j) < 1e-12
        assert FLOAT.coerce(RationalComplex(1, 1)) == FloatComplex(1 + 1j)

    def test_common_field(self):
        k4, k6 = cyclotomic_field(4), cyclotomic_field(6)
        assert common_field(k4, k6) == cyclotomic_field(12)
        assert common_field(RATIONAL, k4) == k4
        # Q(zeta_3) lacks i, which the Gaussian rationals hold
        assert common_field(RATIONAL, cyclotomic_field(3)) == cyclotomic_field(12)
        assert common_field(cyclotomic_field(6), RATIONAL) == cyclotomic_field(12)
        assert common_field(FLOAT, k4) is FLOAT

    def test_promote_pair(self):
        x, y = promote_pair(RationalComplex(1, 0), cyclotomic_field(4).zeta_power(1))
        assert isinstance(x, Cyclotomic) and isinstance(y, Cyclotomic)
        assert (x * y) == cyclotomic_field(4).zeta_power(1)

    def test_field_of(self):
        assert field_of(RationalComplex(1)) is RATIONAL
        assert field_of(cyclotomic_field(4).one) == cyclotomic_field(4)
        assert field_of(FloatComplex(0)) is FLOAT

    def test_field_named(self):
        assert field_named("rational") is RATIONAL
        assert field_named("float") is FLOAT
        assert field_named("cyclotomic:8") == cyclotomic_field(8)
        with pytest.raises(ValueError):
            field_named("padic:5")

    def test_cyclotomic_cache(self):
        assert cyclotomic_field(4) is cyclotomic_field(4)


def test_field_constants_are_properties():
    assert RATIONAL.one == RationalComplex(1)
    assert RATIONAL.zero == RationalComplex(0)
    k = cyclotomic_field(4)
    assert k.one.is_one() and k.zero.is_zero()
    assert FLOAT.one.is_one() and FLOAT.zero.is_zero()
