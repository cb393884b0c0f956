"""Scalar arithmetic for the algebra engine.

Three coefficient domains are supported, selected per system:

* rational     -- Gaussian rationals a + b*i with a, b exact ``Fraction``s.
                  Suitable for untwisted systems; zero tests are exact.
* cyclotomic:q -- the field Q(zeta_q), elements stored as length-phi(q)
                  rational vectors reduced modulo the q-th cyclotomic
                  polynomial, so equality and zero tests are exact.
                  Required for systems twisted by rational angles.
* float        -- complex floating point, zero tested against a 1e-9
                  tolerance.  The only choice for irrational twist angles.

Scalars of the same field combine with the usual operators; ints and
Fractions lift automatically.  Cross-field arithmetic is an error unless
the values are first moved with ``coerce``/``promote_pair``, which walk the
lattice rational -> cyclotomic(q) -> cyclotomic(q*r) -> float.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

FLOAT_TOLERANCE = 1e-9

_TWO_PI = 2.0 * math.pi


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {x!r}")


# ---------------------------------------------------------------------------
# integer polynomial helpers for cyclotomic polynomials
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division of integer polynomials must leave no remainder
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Integer coefficients of the q-th cyclotomic polynomial, ascending."""
    if q < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if q == 1:
        return (-1, 1)
    poly = [-1] + [0] * (q - 1) + [1]  # x^q - 1
    for d in _divisors(q)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# ---------------------------------------------------------------------------
# scalar value types
# ---------------------------------------------------------------------------


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

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

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

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

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

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

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

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

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


class FloatComplex:
    """Complex floating-point scalar; zero means |z| < 1e-9."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _lift(self, other):
        if isinstance(other, FloatComplex):
            return other
        if isinstance(other, (int, float, complex, Fraction)):
            return FloatComplex(complex(other))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FloatComplex(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FloatComplex(self.value - o.value)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FloatComplex(self.value * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return FloatComplex(-self.value)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FloatComplex(self.value / o.value)

    def conj(self) -> "FloatComplex":
        return FloatComplex(self.value.conjugate())

    def inv(self) -> "FloatComplex":
        if self.is_zero():
            raise ZeroDivisionError("inverse of (numerically) zero scalar")
        return FloatComplex(1.0 / self.value)

    def is_zero(self) -> bool:
        return abs(self.value) < FLOAT_TOLERANCE

    def is_one(self) -> bool:
        return abs(self.value - 1.0) < FLOAT_TOLERANCE

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return abs(self.value - o.value) < FLOAT_TOLERANCE

    def __hash__(self):
        raise TypeError("float scalars are not hashable (tolerance equality)")

    def to_complex(self) -> complex:
        return self.value

    def __repr__(self):
        return f"FloatComplex({self.value!r})"


Scalar = RationalComplex | Cyclotomic | FloatComplex


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class RationalField:
    """Constructor object for Gaussian rational scalars."""

    name = "rational"

    @property
    def zero(self):
        return RationalComplex(0)

    @property
    def one(self):
        return RationalComplex(1)

    def from_fraction(self, fr) -> RationalComplex:
        return RationalComplex(_as_fraction(fr))

    def from_pair(self, re, im) -> RationalComplex:
        return RationalComplex(_as_fraction(re), _as_fraction(im))

    def root_of_unity(self, exponent: Fraction) -> RationalComplex:
        """exp(2*pi*i*exponent); exponent denominator must divide 4."""
        exponent = _as_fraction(exponent) % 1
        if exponent.denominator not in (1, 2, 4):
            raise ValueError(
                "rational scalars only contain 4th roots of unity; "
                f"exp(2*pi*i*{exponent}) needs a cyclotomic or float field"
            )
        quarter = exponent * 4  # 0..3
        return {
            0: RationalComplex(1),
            1: RationalComplex(0, 1),
            2: RationalComplex(-1),
            3: RationalComplex(0, -1),
        }[int(quarter)]

    def coerce(self, s) -> RationalComplex:
        if isinstance(s, RationalComplex):
            return s
        if isinstance(s, (int, Fraction)):
            return RationalComplex(_as_fraction(s))
        if isinstance(s, Cyclotomic) and s.is_rational():
            return RationalComplex(s.coeffs[0])
        raise TypeError(f"cannot coerce {s!r} into the rational scalar field")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


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

    def from_pair(self, re, im) -> Cyclotomic:
        im = _as_fraction(im)
        if im == 0:
            return self.from_fraction(re)
        if self.order % 4 != 0:
            raise ValueError(
                f"Q(zeta_{self.order}) does not contain i; cannot represent "
                "an imaginary part exactly"
            )
        return self.from_fraction(re) + self.zeta_power(self.order // 4) * im

    def root_of_unity(self, exponent: Fraction) -> Cyclotomic:
        exponent = _as_fraction(exponent) % 1
        if self.order % exponent.denominator != 0:
            raise ValueError(
                f"exp(2*pi*i*{exponent}) is not a {self.order}-th root of unity"
            )
        return self.zeta_power(exponent.numerator * (self.order // exponent.denominator))

    def coerce(self, s) -> Cyclotomic:
        if isinstance(s, Cyclotomic):
            if s.field.order == self.order:
                return s
            if self.order % s.field.order == 0:
                step = self.order // s.field.order
                out = self.zero
                for k, c in enumerate(s.coeffs):
                    if c:
                        out = out + self.zeta_power(k * step) * c
                return out
            raise TypeError(
                f"cannot embed Q(zeta_{s.field.order}) into Q(zeta_{self.order})"
            )
        if isinstance(s, (int, Fraction)):
            return self.from_fraction(_as_fraction(s))
        if isinstance(s, RationalComplex):
            return self.from_pair(s.re, s.im)
        raise TypeError(f"cannot coerce {s!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cyclotomic", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


class FloatField:
    name = "float"

    @property
    def zero(self):
        return FloatComplex(0.0)

    @property
    def one(self):
        return FloatComplex(1.0)

    def from_fraction(self, fr) -> FloatComplex:
        if isinstance(fr, float):
            return FloatComplex(fr)
        return FloatComplex(float(_as_fraction(fr)))

    def from_pair(self, re, im) -> FloatComplex:
        re = float(re) if not isinstance(re, Fraction) else float(re)
        im = float(im) if not isinstance(im, Fraction) else float(im)
        return FloatComplex(complex(re, im))

    def root_of_unity(self, exponent) -> FloatComplex:
        if isinstance(exponent, Fraction):
            exponent = float(exponent)
        return FloatComplex(cmath.exp(1j * _TWO_PI * exponent))

    def coerce(self, s) -> FloatComplex:
        if isinstance(s, FloatComplex):
            return s
        if isinstance(s, (int, float, complex, Fraction)):
            return FloatComplex(complex(s))
        if isinstance(s, (RationalComplex, Cyclotomic)):
            return FloatComplex(s.to_complex())
        raise TypeError(f"cannot coerce {s!r} into the float scalar field")

    def __eq__(self, other):
        return isinstance(other, FloatField)

    def __hash__(self):
        return hash("float")

    def __repr__(self):
        return "FloatField()"


ScalarField = RationalField | CyclotomicField | FloatField

_CYC_FIELDS: dict[int, CyclotomicField] = {}


def cyclotomic_field(order: int) -> CyclotomicField:
    field = _CYC_FIELDS.get(order)
    if field is None:
        field = _CYC_FIELDS[order] = CyclotomicField(order)
    return field


RATIONAL = RationalField()
FLOAT = FloatField()


def field_named(name: str) -> ScalarField:
    """Resolve 'rational', 'cyclotomic:<q>' or 'float' to a field object."""
    if name == "rational":
        return RATIONAL
    if name == "float":
        return FLOAT
    if name.startswith("cyclotomic:"):
        tail = name.split(":", 1)[1]
        if not tail.isdigit() or int(tail) < 1:
            raise ValueError(f"bad cyclotomic order in scalar mode {name!r}")
        return cyclotomic_field(int(tail))
    raise ValueError(f"unknown scalar mode {name!r}")


def field_of(s: Scalar) -> ScalarField:
    if isinstance(s, RationalComplex):
        return RATIONAL
    if isinstance(s, Cyclotomic):
        return s.field
    if isinstance(s, FloatComplex):
        return FLOAT
    raise TypeError(f"not a scalar: {s!r}")


def common_field(a: ScalarField, b: ScalarField) -> ScalarField:
    """Least field in the coercion lattice containing both arguments."""
    if a == b:
        return a
    if isinstance(a, FloatField) or isinstance(b, FloatField):
        return FLOAT
    if isinstance(a, RationalField):
        return b
    if isinstance(b, RationalField):
        return a
    # two distinct cyclotomic orders: join at the lcm, folding in i if either
    # order already granted it
    lcm = a.order * b.order // math.gcd(a.order, b.order)
    return cyclotomic_field(lcm)


def promote_pair(x: Scalar, y: Scalar) -> tuple[Scalar, Scalar]:
    f = common_field(field_of(x), field_of(y))
    return f.coerce(x), f.coerce(y)
