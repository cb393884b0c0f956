"""The integer-backed scalars against the Fraction-backed ones they replaced.

``RationalComplex``, ``Cyclotomic`` and the polynomial helpers below are the
Fraction-pair and Fraction-vector implementations kept verbatim as an
oracle; ``CyclotomicField`` keeps the part of the old field that they call.
Every operation on random values of the rational field and of
cyclotomic:4, :8 and :12 (zero, ints, Fractions and large numerators
included) must give the same outcome on both: the same value, with the same
coefficients (``re`` and ``im`` for the rational field) and ``repr``, or
the same exception; equal values hash equal.  Fewer examples cover the
orders whose reduction rows have several terms (3, 5, 9), the orders at
the straight-line kernels' cutoff (15, 16, 20, phi = 8) and one above it
(32, phi = 16, the loops), and each generated operation is checked against
the loop on every order up to 30 that has one.
sympy checks ``Cyclotomic.inv`` and ``CyclotomicField.coerce`` by a third
route, polynomial arithmetic modulo the cyclotomic polynomial.
"""

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuntzlab import scalars
from cuntzlab.scalars import cyclotomic_polynomial


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {x!r}")


class RationalComplex:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def _lift(self, other):
        if isinstance(other, RationalComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalComplex(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conj(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def inv(self) -> "RationalComplex":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return RationalComplex(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


class Cyclotomic:
    """An element of Q(zeta_q) in the power basis 1, zeta, ..., zeta^(phi-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs):
        self.field = field
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(self.coeffs) != field.phi:
            raise ValueError("coefficient vector has the wrong length")

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.field.order != self.field.order:
                raise TypeError(
                    "cannot mix cyclotomic scalars of orders "
                    f"{self.field.order} and {other.field.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(_as_fraction(other))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        phi = self.field.phi
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:phi])
        table = self.field.power_table
        for m in range(phi, len(conv)):
            c = conv[m]
            if c:
                red = table[m]
                for i, r in enumerate(red):
                    if r:
                        out[i] += c * r
        return Cyclotomic(self.field, out)

    __rmul__ = __mul__

    def __neg__(self):
        return Cyclotomic(self.field, [-a for a in self.coeffs])

    def conj(self) -> "Cyclotomic":
        # zeta^k |-> zeta^(q-k)
        q = self.field.order
        out = [Fraction(0)] * self.field.phi
        table = self.field.power_table
        for k, c in enumerate(self.coeffs):
            if c:
                red = table[(q - k) % q]
                for i, r in enumerate(red):
                    if r:
                        out[i] += c * r
        return Cyclotomic(self.field, out)

    def inv(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        # extended Euclid against the (irreducible) cyclotomic polynomial
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.field.order)]
        r0, s0 = modulus, []
        r1, s1 = list(self.coeffs), [Fraction(1)]
        while True:
            r1t = _poly_trim(r1)
            if len(r1t) == 1:
                inv_lead = 1 / r1t[0]
                coeffs = [c * inv_lead for c in s1]
                coeffs += [Fraction(0)] * (self.field.phi - len(coeffs))
                return Cyclotomic(self.field, coeffs[: self.field.phi])
            quot, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quot, s1))
            if not _poly_trim(r1):
                raise ArithmeticError("cyclotomic polynomial split unexpectedly")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def to_complex(self) -> complex:
        q = self.field.order
        return sum(
            float(c) * cmath.exp(2j * math.pi * k / q)
            for k, c in enumerate(self.coeffs)
            if c
        ) + 0j

    def __repr__(self):
        return f"Cyclotomic(q={self.field.order}, {list(self.coeffs)})"


def _poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    quot = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return quot, _poly_trim(a)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


class CyclotomicField:
    """Constructor object for Q(zeta_q) scalars with exact arithmetic."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        poly = cyclotomic_polynomial(order)
        self.phi = len(poly) - 1
        self.name = f"cyclotomic:{order}"
        # power_table[m] = integer coefficients of x^m reduced mod Phi_q,
        # for every exponent reachable by products and conjugation
        limit = max(order, 2 * self.phi - 1)
        table = []
        cur = [0] * self.phi
        cur[0] = 1
        table.append(tuple(cur))
        top = [-c for c in poly[: self.phi]]  # x^phi = top (monic modulus)
        for _ in range(1, limit):
            nxt = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                nxt = [nxt[i] + lead * top[i] for i in range(self.phi)]
            table.append(tuple(nxt))
            cur = nxt
        self.power_table = tuple(table)

    @property
    def zero(self):
        return Cyclotomic(self, [0] * self.phi)

    @property
    def one(self):
        return self.from_fraction(Fraction(1))

    def from_fraction(self, fr) -> Cyclotomic:
        coeffs = [Fraction(0)] * self.phi
        coeffs[0] = _as_fraction(fr)
        return Cyclotomic(self, coeffs)

    def zeta_power(self, k: int) -> Cyclotomic:
        red = self.power_table[k % self.order]
        return Cyclotomic(self, [Fraction(c) for c in red])


ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)
FIELDS = ["rational", "cyclotomic:4", "cyclotomic:8", "cyclotomic:12"]
WIDE_ORDERS = (3, 5, 9, 15, 16, 17, 20, 32)
ORACLE_FIELDS = {q: CyclotomicField(q) for q in (4, 8, 12, *WIDE_ORDERS)}

numerators = st.one_of(
    st.just(0), st.integers(-12, 12), st.integers(-(10**40), 10**40)
)
denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**30))
fractions = st.builds(Fraction, numerators, denominators)
parts = st.one_of(numerators, fractions)  # what the constructors accept


def _order(name):
    return int(name.split(":")[1])


@st.composite
def values(draw, name):
    """A value of the named field, built by both implementations from the
    same parts: (new, old)."""
    if name == "rational":
        if draw(st.booleans()):
            re, im = draw(parts), draw(parts)
        else:
            re, im = draw(parts), 0  # real values are common in the engine
        return scalars.RationalComplex(re, im), RationalComplex(re, im)
    q = _order(name)
    field = scalars.cyclotomic_field(q)
    coeffs = [draw(parts) if draw(st.booleans()) else 0 for _ in range(field.phi)]
    return scalars.Cyclotomic(field, coeffs), Cyclotomic(ORACLE_FIELDS[q], coeffs)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared by type against the oracle
        return "raises", type(exc)


def assert_canonical(new):
    """den > 0 and the integers in lowest terms: the one representation
    that ``==`` compares.  The Fraction views hide a violation."""
    nums = new.nums
    assert len(nums) == new.field.phi
    assert all(type(n) is int for n in (*nums, new.den))
    assert new.den > 0 and math.gcd(new.den, *nums) == 1


def assert_same_value(new, old):
    if isinstance(old, (RationalComplex, Cyclotomic)):
        assert_canonical(new)
    if isinstance(old, RationalComplex):
        assert scalars.field_of(new) is scalars.RATIONAL
        assert all(type(c) is Fraction for c in new.coeffs)
        assert new.coeffs == (old.re, old.im)
    elif isinstance(old, Cyclotomic):
        assert isinstance(new, scalars.Cyclotomic)
        assert new.field is scalars.cyclotomic_field(old.field.order)
        assert type(new.coeffs) is tuple
        assert all(type(c) is Fraction for c in new.coeffs)
        assert new.coeffs == old.coeffs
        assert new.is_rational() == old.is_rational()
    else:
        assert type(new) is type(old) and new == old
        return
    assert repr(new) == repr(old)
    # an equal value built apart hashes the same
    twin = scalars.Cyclotomic(new.field, new.coeffs)
    assert twin == new and hash(twin) == hash(new)
    assert new.is_zero() == old.is_zero()
    assert new.is_one() == old.is_one()
    assert new.to_complex() == old.to_complex()


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1] is want[1]
    else:
        assert_same_value(got[1], want[1])


# neither side has ``/`` or a reflected ``-``: an int or Fraction minus a
# scalar raises TypeError on both
BINARY = [operator.add, operator.sub, operator.mul, operator.eq, operator.ne]
UNARY = [operator.neg, lambda x: x.conj(), lambda x: x.inv(), lambda x: x]


@pytest.mark.parametrize("name", FIELDS)
@ORACLE
@given(data=st.data())
def test_unary_operations_match_oracle(name, data):
    new, old = data.draw(values(name))
    for op in UNARY:
        assert_same_outcome(outcome(op, new), outcome(op, old))


@pytest.mark.parametrize("name", FIELDS)
@ORACLE
@given(data=st.data())
def test_binary_operations_match_oracle(name, data):
    a_new, a_old = data.draw(values(name))
    kind = data.draw(st.sampled_from(["same field", "int", "Fraction"]))
    if kind == "same field":
        b_new, b_old = data.draw(values(name))
    else:
        b_new = b_old = data.draw(numerators if kind == "int" else fractions)
    for op in BINARY:
        # both orders: an int or Fraction on the left takes the reflected path
        assert_same_outcome(outcome(op, a_new, b_new), outcome(op, a_old, b_old))
        assert_same_outcome(outcome(op, b_new, a_new), outcome(op, b_old, a_old))


@pytest.mark.parametrize("q", WIDE_ORDERS)
@settings(ORACLE, max_examples=8)
@given(data=st.data())
def test_wide_orders_match_oracle(q, data):
    name = f"cyclotomic:{q}"
    (a_new, a_old), (b_new, b_old) = data.draw(values(name)), data.draw(values(name))
    for op in UNARY:
        assert_same_outcome(outcome(op, a_new), outcome(op, a_old))
    for op in BINARY:
        assert_same_outcome(outcome(op, a_new, b_new), outcome(op, a_old, b_old))


KERNEL_ORDERS = [
    q for q in range(1, 31)
    if scalars.cyclotomic_field(q).phi <= scalars.KERNEL_MAX_PHI
]
# every field generates its additive operations; 32, of degree 16 as 17 is,
# joins the orders up to 30
ADDITIVE_ORDERS = [*range(1, 31), 32]


ADDITIVE = ["__add__", "__radd__", "__sub__", "__neg__"]
KERNEL = ["__mul__", "conj"]


@st.composite
def numerator_pairs(draw, field):
    """Two values of ``field`` on equal or on unequal denominators."""
    same = draw(st.booleans())
    den = draw(denominators)

    def value():
        nums = draw(st.lists(numerators, min_size=field.phi, max_size=field.phi))
        return scalars._cyclotomic(field, nums, den if same else draw(denominators))

    a, b = value(), value()
    assume(a.den == b.den if same else a.den != b.den)
    return a, b


def assert_generated(got, field):
    assert_canonical(got)
    assert type(got) is field.value_type


@ORACLE
@given(data=st.data())
def test_additive_operations_match_oracle(data):
    # the generated +, - and negation of every field against the verbatim
    # Fraction-vector oracle, an int on either side included
    q = data.draw(st.sampled_from(ADDITIVE_ORDERS))
    field, old_field = scalars.cyclotomic_field(q), CyclotomicField(q)
    a, b = data.draw(numerator_pairs(field))
    n = data.draw(numerators)
    a_old, b_old = (Cyclotomic(old_field, x.coeffs) for x in (a, b))
    # an int on either side of ``+`` and on the right of ``-``
    for got, want in ((a + b, a_old + b_old), (a - b, a_old - b_old), (a + n, a_old + n),
                      (n + a, n + a_old), (a - n, a_old - n)):
        assert_generated(got, field)
        assert got.coeffs == want.coeffs
    got = -a
    assert_generated(got, field)
    assert got.coeffs == (-a_old).coeffs


@ORACLE
@given(data=st.data())
def test_kernel_matches_loop(data):
    # the generated product and conj against the loops that fields above the
    # cutoff keep, on equal and on unequal denominators
    q = data.draw(st.sampled_from(KERNEL_ORDERS))
    field = scalars.cyclotomic_field(q)
    a, b = data.draw(numerator_pairs(field))
    generated, loop = field.value_type, scalars.Cyclotomic
    for got, want in ((generated.__mul__(a, b), loop.__mul__(a, b)),
                      (generated.conj(a), loop.conj(a))):
        assert_generated(got, field)
        assert (got.nums, got.den) == (want.nums, want.den)


def test_kernel_cutoff():
    assert KERNEL_ORDERS == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30]
    # the base class keeps the loop product and conj, and nothing additive
    assert set(KERNEL) <= set(vars(scalars.Cyclotomic))
    assert not set(ADDITIVE) & set(vars(scalars.Cyclotomic))
    for q in (17, 32):
        values = vars(scalars.cyclotomic_field(q).value_type)
        assert set(ADDITIVE) <= set(values) and not set(KERNEL) & set(values)


@pytest.mark.parametrize("q", ADDITIVE_ORDERS)
def test_kernel_reads_only_numerators_and_integers(q):
    field = scalars.cyclotomic_field(q)
    phi = field.phi
    ops = ADDITIVE + (KERNEL if phi <= scalars.KERNEL_MAX_PHI else [])
    allowed = {"self", "other", "d", "f", "g", "z"} | {
        f"{x}{i}" for x in "abn" for i in range(phi)
    }
    for op in ops:
        method = vars(field.value_type)[op]
        code = method.__code__
        # the lift of another operand, the stored integers, and the names
        # the field compiles the source with
        assert set(code.co_names) <= {
            "__class__", "_lift", "NotImplemented", "nums", "den", "cls", "new", "gcd"
        }
        assert all(c is None or type(c) is int for c in code.co_consts)
        assert set(code.co_varnames) <= allowed | {f"t{m}" for m in range(phi, 2 * phi - 1)}


def _in_q8(old):
    """An oracle value of the rational field, cyclotomic:4 or :8 as its
    coefficients over 1, zeta_8, zeta_8^2 = i and zeta_8^3."""
    if isinstance(old, RationalComplex):
        return (old.re, 0, old.im, 0)
    if old.field.order == 4:
        return (old.coeffs[0], 0, old.coeffs[1], 0)
    return old.coeffs


@ORACLE
@given(data=st.data())
def test_mixed_fields_match_oracle(data):
    # orders 4 and 8 do not combine without coerce, nor do the two value
    # types; they compare, and hash, as the numbers they are
    values_of = {name: data.draw(values(name)) for name in FIELDS[:3]}
    if data.draw(st.booleans()):
        # one number in all three fields
        new, old = values_of["cyclotomic:4"]
        values_of["rational"] = scalars.RationalComplex(*old.coeffs), RationalComplex(*old.coeffs)
        k8 = scalars.cyclotomic_field(8)
        values_of["cyclotomic:8"] = k8.coerce(new), Cyclotomic(ORACLE_FIELDS[8], _in_q8(old))
    for x in values_of:
        for y in values_of:
            if x == y:
                continue
            (a_new, a_old), (b_new, b_old) = values_of[x], values_of[y]
            for op in (operator.add, operator.sub, operator.mul):
                assert_same_outcome(outcome(op, a_new, b_new), outcome(op, a_old, b_old))
            same = _in_q8(a_old) == _in_q8(b_old)
            assert (a_new == b_new, a_new != b_new) == (same, not same)
            if same:
                assert hash(a_new) == hash(b_new)


@pytest.mark.parametrize(
    "name,parts_in",
    [
        ("rational", (Fraction(1, 2), 0.5)),
        ("rational", (1.5,)),
        ("cyclotomic:4", ([Fraction(1, 2), 0.5],)),
        ("cyclotomic:4", ([1, 2, 3],)),
        ("cyclotomic:8", ([1, 2],)),
    ],
)
def test_constructor_errors_match_oracle(name, parts_in):
    if name == "rational":
        got = outcome(scalars.RationalComplex, *parts_in)
        want = outcome(RationalComplex, *parts_in)
    else:
        q = _order(name)
        got = outcome(scalars.Cyclotomic, scalars.cyclotomic_field(q), *parts_in)
        want = outcome(Cyclotomic, ORACLE_FIELDS[q], *parts_in)
    assert got[0] == want[0] == "raises" and got[1] is want[1]


@pytest.mark.parametrize("q", sorted(ORACLE_FIELDS))
def test_field_values_match_oracle(q):
    new, old = scalars.cyclotomic_field(q), ORACLE_FIELDS[q]
    assert_same_value(new.zero, old.zero)
    assert_same_value(new.one, old.one)
    for k in range(-q, 2 * q):
        assert_same_value(new.zeta_power(k), old.zeta_power(k))
    for fr in (0, 7, Fraction(-3, 10**25), Fraction(10**40, 3)):
        assert_same_value(new.from_fraction(fr), old.from_fraction(fr))


def test_field_constants_are_shared():
    assert scalars.RATIONAL.one is scalars.RATIONAL.one
    assert scalars.RATIONAL.zero is scalars.RATIONAL.zero
    k8 = scalars.cyclotomic_field(8)
    assert k8.one is k8.one and k8.zero is k8.zero
    assert k8.zeta_power(3) is k8.zeta_power(11)


# ---------------------------------------------------------------------------
# sympy: inverse and coercion as polynomial arithmetic modulo Phi_q

SYMPY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _sympy_coeffs(sympy, x, poly, q):
    """The power-basis coefficients of ``poly`` reduced modulo Phi_q."""
    phi = sympy.totient(q)
    reduced = sympy.Poly(sympy.rem(poly, sympy.cyclotomic_poly(q, x), x), x, domain="QQ")
    out = [Fraction(0)] * phi
    for (k,), c in reduced.terms():
        out[k] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def _as_poly(sympy, x, coeffs, step=1):
    """sum_k c_k x^(k*step): an element of Q(zeta_r) read in Q(zeta_(r*step))."""
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x ** (k * step)
         for k, c in enumerate(coeffs)),
        sympy.Integer(0),
    )


@pytest.mark.parametrize("q", [2, 3, 4, 8, 12])
@SYMPY
@given(data=st.data())
def test_inverse_matches_sympy(q, data):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = scalars.cyclotomic_field(q)
    a = scalars.Cyclotomic(field, [data.draw(parts) for _ in range(field.phi)])
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
        return
    inverse = sympy.invert(_as_poly(sympy, x, a.coeffs), sympy.cyclotomic_poly(q, x), x)
    got = a.inv()
    assert_canonical(got)
    assert got.coeffs == _sympy_coeffs(sympy, x, inverse, q)


@pytest.mark.parametrize("source,target", [(4, 8), (3, 12), ("rational", 8)])
@SYMPY
@given(data=st.data())
def test_coerce_matches_sympy(source, target, data):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = scalars.cyclotomic_field(target)
    if source == "rational":
        value = scalars.RationalComplex(data.draw(parts), data.draw(parts))
        # i = zeta_8^2
        poly = _as_poly(sympy, x, value.coeffs, step=target // 4)
    else:
        small = scalars.cyclotomic_field(source)
        value = scalars.Cyclotomic(small, [data.draw(parts) for _ in range(small.phi)])
        # zeta_r = zeta_q^(q/r)
        poly = _as_poly(sympy, x, value.coeffs, step=target // source)
    got = field.coerce(value)
    assert got.field is field
    assert_canonical(got)
    assert got.coeffs == _sympy_coeffs(sympy, x, poly, target)
