"""Exact scalar arithmetic: rationals with i, cyclotomic integers, floats."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab.scalars import (
    FLOAT,
    RATIONAL,
    Cyclotomic,
    CyclotomicField,
    FloatComplex,
    RationalComplex,
    common_field,
    cyclotomic_field,
    cyclotomic_polynomial,
    field_named,
    field_of,
)


LATTICE_ORDERS = (1, 2, 3, 4, 6, 8, 12)


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

    def test_conj(self):
        assert RationalComplex(2, -3).conj() == RationalComplex(2, 3)

    def test_fraction_mixing(self):
        a = RationalComplex(Fraction(1, 2)) + Fraction(1, 3)
        assert a == RationalComplex(Fraction(5, 6))
        assert (Fraction(2) * RationalComplex(0, 1)) == RationalComplex(0, 2)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            RationalComplex(0).inv()

    def test_repr(self):
        value = RationalComplex(Fraction(3, 4), Fraction(-2, 3))
        assert repr(value) == "RationalComplex(3/4, -2/3)"

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


    @pytest.mark.parametrize("name", ["rational", "cyclotomic:4", "cyclotomic:8"])
    def test_hash_agrees_with_equality(self, name):
        # a value equal to an int or Fraction hashes like it, so it finds
        # that number's dict entry
        field = field_named(name)
        numbers = [0, 1, 3, -2, Fraction(1, 2), Fraction(-7, 3)]
        values = [field.from_fraction(q) for q in numbers]
        values += [field.zeta_power(1), field.one + field.zeta_power(1)]
        values.append(field.from_fraction(Fraction(1, 2)) + field.zeta_power(1))
        for v in values:
            for q in numbers:
                if v == q:
                    assert hash(v) == hash(q), (name, v, q)
                    assert {q: "found"}.get(v) == "found"
        assert sum(v == q for v in values for q in numbers) == len(numbers)


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
        # each part rounds once, so no cos(pi/2) enters the real part
        z = FLOAT.coerce(RationalComplex(Fraction(1, 3), Fraction(-2, 7)))
        assert z.value == complex(1 / 3, -2 / 7)

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

    def test_directly_built_field_equals_cached_one(self):
        built = CyclotomicField(8)
        assert built is not cyclotomic_field(8)
        assert built == cyclotomic_field(8) and cyclotomic_field(8) == built
        assert hash(built) == hash(cyclotomic_field(8))
        assert not (built != cyclotomic_field(8))

    def test_fields_of_different_kinds_or_orders_differ(self):
        fields = [RATIONAL, FLOAT] + [cyclotomic_field(q) for q in LATTICE_ORDERS]
        for i, a in enumerate(fields):
            for j, b in enumerate(fields):
                assert (a == b) == (i == j), (a.name, b.name)
                assert (a != b) == (i != j), (a.name, b.name)
        assert len({hash(f) for f in fields}) == len(fields)
        assert RATIONAL != cyclotomic_field(4)
        assert cyclotomic_field(4) != RATIONAL

    def test_common_field_of_every_pair(self):
        # the Gaussian rationals are Q(zeta_4); float absorbs everything
        def order(f):
            return 4 if f is RATIONAL else f.order

        def expected(a, b):
            if a is FLOAT or b is FLOAT:
                return FLOAT
            if a is b:
                return a
            return cyclotomic_field(order(a) * order(b) // gcd(order(a), order(b)))

        fields = [RATIONAL, FLOAT] + [cyclotomic_field(q) for q in LATTICE_ORDERS]
        for a in fields:
            for b in fields:
                assert common_field(a, b) is expected(a, b), (a.name, b.name)


def test_no_division_and_no_reflected_subtraction():
    # no check of the paper divides scalars or subtracts one from a number
    for a in (RationalComplex(1, 2), cyclotomic_field(8).zeta_power(1), FloatComplex(1 + 2j)):
        for op in (lambda: a / a, lambda: a / 2, lambda: 1 - a, lambda: Fraction(1, 2) - a):
            with pytest.raises(TypeError):
                op()


class TestCrossFieldEquality:
    def test_same_number_in_two_fields(self):
        assert RATIONAL.from_fraction(3) == cyclotomic_field(4).from_fraction(3)
        assert cyclotomic_field(4).zeta_power(1) == cyclotomic_field(8).zeta_power(2)
        assert RationalComplex(0, 1) == cyclotomic_field(12).zeta_power(3)
        assert not (cyclotomic_field(4).zeta_power(1) != cyclotomic_field(8).zeta_power(2))

    def test_different_numbers_stay_unequal(self):
        k4, k8 = cyclotomic_field(4), cyclotomic_field(8)
        assert k4.zeta_power(1) != k8.zeta_power(1)
        assert RATIONAL.from_fraction(3) != k8.from_fraction(Fraction(3, 2))
        assert RationalComplex(0, 1) != cyclotomic_field(3).zeta_power(1)
        assert k8.zeta_power(2) != RationalComplex(0, -1)

    def test_dict_lookup_across_fields(self):
        k4, k8 = cyclotomic_field(4), cyclotomic_field(8)
        table = {RationalComplex(Fraction(1, 2), 3): "gaussian", k4.zeta_power(1): "i"}
        assert table[k8.gaussian(1, 6, 2)] == "gaussian"
        assert table[k8.zeta_power(2)] == "i"
        assert table[cyclotomic_field(12).zeta_power(3)] == "i"
        assert k8.zeta_power(1) not in table

    def test_arithmetic_across_fields_still_raises(self):
        k4, k8 = cyclotomic_field(4), cyclotomic_field(8)
        for a, b in [(k4.one, k8.one), (RATIONAL.one, k4.one)]:
            for op in (lambda: a + b, lambda: a * b, lambda: a - b):
                with pytest.raises(TypeError):
                    op()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["rational", *(f"cyclotomic:{q}" for q in range(1, 25))]),
        st.integers(1, 4),
        st.data(),
    )
    def test_value_equals_and_hashes_as_its_embedding(self, name, multiple, data):
        field = field_named(name)
        parts = st.lists(st.fractions(max_denominator=10**6), min_size=field.phi, max_size=field.phi)
        value = Cyclotomic(field, data.draw(parts))
        wider = cyclotomic_field(field.order * multiple).coerce(value)
        assert wider == value and value == wider and not (wider != value)
        assert hash(wider) == hash(value)


def test_field_constants_are_properties():
    assert RATIONAL.one == RationalComplex(1)
    assert RATIONAL.zero == RationalComplex(0)
    k = cyclotomic_field(4)
    assert k.one.is_one() and k.zero.is_zero()
    assert FLOAT.one.is_one() and FLOAT.zero.is_zero()
