"""Scalar arithmetic for the algebra engine.

Three coefficient domains are supported, selected per system:

* rational     -- Gaussian rationals a + b*i with a, b exact rationals.
                  Suitable for untwisted systems; zero tests are exact.
* cyclotomic:q -- the field Q(zeta_q), elements stored as length-phi(q)
                  rational vectors reduced modulo the q-th cyclotomic
                  polynomial, so equality and zero tests are exact.
                  Required for systems twisted by rational angles.
* float        -- complex floating point, zero tested against a 1e-9
                  tolerance.  The only choice for irrational twist angles.

The exact values live on plain integers: a Gaussian rational is the triple
(re_num, im_num, den) and a cyclotomic value a vector of integer numerators
over one common denominator, in both cases with den > 0 and in lowest terms
(one ``math.gcd`` after each operation), so every value has one
representation and equality compares integers.  The ``Fraction`` views
``re``, ``im`` and ``coeffs`` are derived on demand for printing.  Each
field's ``zero`` and ``one`` are shared constants, and a cyclotomic field
keeps its roots of unity, so the engine never rebuilds them.  ``SystemSpec``
caches fiber dimensions per fiber on top, but no multipliers: an exact
twisted spec keeps theta * q as integers, so a phase is one power of zeta_q.

Each cyclotomic field multiplies numerator vectors with one function,
``product``, built when the field is.  Up to ``KERNEL_MAX_PHI`` = 8, which
covers orders 4, 8 and 12 and every order up to 30 of degree phi <= 8, it is
straight-line code generated from the field's reduction table: the phi^2
numerator products and their reduction, written out with no loop.  Above it
the field keeps a loop over the nonzero numerators.  Measured on one shared
2-vCPU host (Python 3.11; median of 7 timings of 100 products of values
with small numerators, both paths on the same values), at phi = 8 the
kernel took 3.7-4.8 us per product against 5.0-7.3 us for the loop on
values with one or two nonzero coordinates, and 5.3-6.2 us against
15.2-18.0 us on full ones.  At phi = 16 it took 9.2-10.2 us against
6.3-8.0 us on one or two coordinates, whose zeros the loop skips, and
15.9-16.9 us against 40.3-43.3 us on full ones.  So the kernel wins on every
value up to phi = 8 and from phi = 16 only on dense ones.  The cutoff rests
on these timings alone: the benchmark's twisted workload runs orders 4 and 8
(phi 2 and 4), so no end-to-end run crosses it.

Scalars of the same field combine with the usual operators; ints and
Fractions lift automatically.  Cross-field arithmetic is an error unless
the values are first moved with ``coerce`` into their ``common_field`` in
the lattice rational -> cyclotomic(lcm(4, q)) -> cyclotomic(lcm(q, r)) ->
float: the Gaussian rationals hold i, so they meet Q(zeta_q) in
Q(zeta_lcm(4, q)).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, partial

FLOAT_TOLERANCE = 1e-9

# Fields of degree phi <= this multiply through a generated straight-line
# kernel; larger ones keep the loop, which skips zero numerators and whose
# cost does not grow as phi^2 on sparse values (see the module docstring).
KERNEL_MAX_PHI = 8

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


def _sparse_product(phi: int, reduction, a, b) -> list[int]:
    """The product of two numerator tuples of Q(zeta_q), reduced modulo
    Phi_q: a convolution over the nonzero numerators, then one reduction
    pass, so its cost follows the supports of a and b."""
    conv = [0] * (2 * phi - 1)
    b_support = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_support:
                conv[i + j] += x * y
    out = conv[:phi]
    for m in range(phi, len(conv)):
        c = conv[m]
        if c:
            for i, r in reduction[m]:
                out[i] += c * r
    return out


def _product_kernel(phi: int, reduction):
    """The product of two numerator tuples of Q(zeta_q), reduced modulo
    Phi_q, as one generated function without loops or calls.

    Coordinate k is the sum of a_i*b_j over i + j = k plus, for each
    m >= phi, reduction[m]'s coefficient at k times the sum over i + j = m.
    A high sum that reduces to one coordinate is written out in place; one
    that reduces to several is computed once into a local.  The source holds
    integer literals and the numerator names only.
    """

    def pairs(m):
        return [f"a{i}*b{m - i}" for i in range(max(0, m - phi + 1), min(m, phi - 1) + 1)]

    rows = [[(1, p) for p in pairs(k)] for k in range(phi)]
    body = []
    for m in range(phi, 2 * phi - 1):
        targets = reduction[m]
        if len(targets) == 1:
            terms = pairs(m)
        else:
            body.append(f"    t{m} = {' + '.join(pairs(m))}")
            terms = [f"t{m}"]
        for k, r in targets:
            rows[k] += [(r, t) for t in terms]

    def signed_sum(row):
        text = "".join(
            f" {'+' if r > 0 else '-'} {'' if abs(r) == 1 else f'{abs(r)}*'}{t}"
            for r, t in row
        )
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def unpack(x):
        return f"    {''.join(f'{x}{i}, ' for i in range(phi))}= {x}"

    returned = "".join(signed_sum(row) + ", " for row in rows)
    source = "\n".join(
        ["def product(a, b):", unpack("a"), unpack("b"), *body, f"    return ({returned})"]
    )
    namespace = {"__builtins__": {}}
    exec(source, namespace)
    return namespace["product"]


# ---------------------------------------------------------------------------
# scalar value types
# ---------------------------------------------------------------------------


_new = object.__new__


class _Scalar:
    """What every scalar type derives from its ``_lift``, ``-``, ``*`` and ``inv``."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()


class RationalComplex(_Scalar):
    """A Gaussian rational (re_num + im_num*i) / den on plain integers.

    ``den > 0`` and gcd(re_num, im_num, den) == 1, so each value has exactly
    one triple and ``==`` compares triples.  ``re`` and ``im`` are derived
    ``Fraction``s for printing and for callers outside the arithmetic.
    Values are immutable: the fields share their constants.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re, im=0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        d_re, d_im = re.denominator, im.denominator
        # both parts are reduced, so over their lcm the triple is too
        den = d_re * d_im // math.gcd(d_re, d_im)
        self.re_num = re.numerator * (den // d_re)
        self.im_num = im.numerator * (den // d_im)
        self.den = den

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def _lift(self, other):
        if isinstance(other, RationalComplex):
            return other
        if isinstance(other, int):
            return _rational(int(other), 0, 1)
        if isinstance(other, Fraction):
            return _rational(other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = other if other.__class__ is RationalComplex else self._lift(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _rational(self.re_num + o.re_num, self.im_num + o.im_num, d)
        return _rational(
            self.re_num * f + o.re_num * d, self.im_num * f + o.im_num * d, d * f
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is RationalComplex else self._lift(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _rational(self.re_num - o.re_num, self.im_num - o.im_num, d)
        return _rational(
            self.re_num * f - o.re_num * d, self.im_num * f - o.im_num * d, d * f
        )

    def __mul__(self, other):
        o = other if other.__class__ is RationalComplex else self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.re_num, self.im_num, o.re_num, o.im_num
        return _rational(a * c - b * e, a * e + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return _rational(-self.re_num, -self.im_num, self.den)

    def conj(self) -> "RationalComplex":
        return _rational(self.re_num, -self.im_num, self.den)

    def inv(self) -> "RationalComplex":
        a, b, d = self.re_num, self.im_num, self.den
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        # 1 / ((a + bi)/d) = d (a - bi) / (a^2 + b^2)
        return _rational(d * a, -d * b, n)

    def is_zero(self) -> bool:
        return self.re_num == 0 and self.im_num == 0

    def is_one(self) -> bool:
        return self.re_num == 1 and self.im_num == 0 and self.den == 1

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (
            self.re_num == o.re_num and self.im_num == o.im_num and self.den == o.den
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re_num / self.den, self.im_num / self.den)

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


def _rational(re_num: int, im_num: int, den: int) -> RationalComplex:
    """The private constructor: integers with den > 0, reduced by one gcd."""
    g = math.gcd(re_num, im_num, den)
    if g != 1:
        re_num //= g
        im_num //= g
        den //= g
    z = _new(RationalComplex)
    z.re_num = re_num
    z.im_num = im_num
    z.den = den
    return z


class Cyclotomic(_Scalar):
    """An element of Q(zeta_q) in the power basis 1, zeta, ..., zeta^(phi-1).

    Stored as integer numerators ``nums`` over one common denominator
    ``den > 0`` with gcd(*nums, den) == 1, so each value has exactly one
    representation.  ``coeffs`` derives the ``Fraction`` coefficients.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "CyclotomicField", coeffs):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != field.phi:
            raise ValueError("coefficient vector has the wrong length")
        # reduced coefficients over their lcm leave the vector reduced
        den = math.lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.field.order != self.field.order:
                raise TypeError(
                    "cannot mix cyclotomic scalars of orders "
                    f"{self.field.order} and {other.field.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _cyclotomic(self.field, [a + b for a, b in zip(self.nums, o.nums)], d)
        return _cyclotomic(
            self.field, [a * f + b * d for a, b in zip(self.nums, o.nums)], d * f
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _cyclotomic(self.field, [a - b for a, b in zip(self.nums, o.nums)], d)
        return _cyclotomic(
            self.field, [a * f - b * d for a, b in zip(self.nums, o.nums)], d * f
        )

    def __mul__(self, other):
        field = self.field
        if other.__class__ is Cyclotomic and other.field is field:
            o = other
        else:
            o = self._lift(other)
            if o is None:
                return NotImplemented
        return _cyclotomic(field, field.product(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return _cyclotomic(self.field, [-a for a in self.nums], self.den)

    def conj(self) -> "Cyclotomic":
        return _substitute(self.field, self, -1)

    def inv(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        # the product of the other Galois conjugates over the norm, which
        # is the product of all of them and a nonzero rational
        q = self.field.order
        rest = self.field.one
        for k in range(2, q):
            if math.gcd(k, q) == 1:
                rest = rest * _substitute(self.field, self, k)
        norm = self * rest
        n = norm.nums[0]
        sign = 1 if n > 0 else -1
        return _cyclotomic(
            self.field, [sign * norm.den * c for c in rest.nums], sign * n * rest.den
        )

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def to_complex(self) -> complex:
        q, den = self.field.order, self.den
        return sum(
            n / den * cmath.exp(2j * math.pi * k / q)
            for k, n in enumerate(self.nums)
            if n
        ) + 0j

    def __repr__(self):
        return f"Cyclotomic(q={self.field.order}, {list(self.coeffs)})"


def _substitute(field: "CyclotomicField", z: Cyclotomic, m: int) -> Cyclotomic:
    """z with zeta_r |-> zeta_q^m in ``field`` = Q(zeta_q), r the order of z: a
    Galois automorphism for r = q and m coprime to q, an embedding for m = q/r."""
    q = field.order
    out = [0] * field.phi
    reduction = field.reduction
    for j, c in enumerate(z.nums):
        if c:
            for i, r in reduction[j * m % q]:
                out[i] += c * r
    return _cyclotomic(field, out, z.den)


def _cyclotomic(field: "CyclotomicField", nums, den: int) -> Cyclotomic:
    """The private constructor: integer numerators over den > 0, reduced by
    one gcd."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    z = _new(Cyclotomic)
    z.field = field
    z.nums = tuple(nums)
    z.den = den
    return z


class FloatComplex(_Scalar):
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
    zero = _rational(0, 0, 1)
    one = _rational(1, 0, 1)
    # exp(2*pi*i*k/4) for k = 0..3
    _quarter_turns = (one, _rational(0, 1, 1), _rational(-1, 0, 1), _rational(0, -1, 1))

    def from_fraction(self, fr) -> RationalComplex:
        fr = _as_fraction(fr)
        return _rational(fr.numerator, 0, fr.denominator)

    def gaussian(self, re_num: int, im_num: int, den: int) -> RationalComplex:
        """(re_num + im_num*i) / den for integers with den > 0."""
        return _rational(re_num, im_num, den)

    def root_of_unity(self, exponent: Fraction) -> RationalComplex:
        """exp(2*pi*i*exponent); exponent denominator must divide 4."""
        exponent = _as_fraction(exponent) % 1
        if exponent.denominator not in (1, 2, 4):
            raise ValueError(
                "rational scalars only contain 4th roots of unity; "
                f"exp(2*pi*i*{exponent}) needs a cyclotomic or float field"
            )
        return self._quarter_turns[int(exponent * 4)]

    def coerce(self, s) -> RationalComplex:
        if isinstance(s, RationalComplex):
            return s
        if isinstance(s, (int, Fraction)):
            return self.from_fraction(s)
        if isinstance(s, Cyclotomic) and s.is_rational():
            return _rational(s.nums[0], 0, s.den)
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
        # table[m] = integer coefficients of x^m reduced mod Phi_q, for
        # every exponent reachable by products and Galois automorphisms
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
        # reduction[m] = the nonzero (index, coefficient) pairs of table[m]
        self.reduction = tuple(
            tuple((i, r) for i, r in enumerate(row) if r) for row in table
        )
        # product(a, b): the reduced product of two numerator tuples
        if self.phi <= KERNEL_MAX_PHI:
            self.product = _product_kernel(self.phi, self.reduction)
        else:
            self.product = partial(_sparse_product, self.phi, self.reduction)
        self._zeta = tuple(_cyclotomic(self, table[k], 1) for k in range(order))
        self.zero = _cyclotomic(self, [0] * self.phi, 1)
        self.one = self._zeta[0]

    def from_fraction(self, fr) -> Cyclotomic:
        fr = _as_fraction(fr)
        return _cyclotomic(self, [fr.numerator] + [0] * (self.phi - 1), fr.denominator)

    def zeta_power(self, k: int) -> Cyclotomic:
        return self._zeta[k % self.order]

    def gaussian(self, re_num: int, im_num: int, den: int) -> Cyclotomic:
        """(re_num + im_num*i) / den for integers with den > 0."""
        if im_num == 0:
            return _cyclotomic(self, [re_num] + [0] * (self.phi - 1), den)
        if self.order % 4 != 0:
            raise ValueError(
                f"Q(zeta_{self.order}) does not contain i; cannot represent "
                "an imaginary part exactly"
            )
        i = self.zeta_power(self.order // 4)
        nums = [im_num * c for c in i.nums]
        nums[0] += re_num * i.den
        return _cyclotomic(self, nums, den * i.den)

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
                return _substitute(self, s, self.order // s.field.order)
            raise TypeError(
                f"cannot embed Q(zeta_{s.field.order}) into Q(zeta_{self.order})"
            )
        if isinstance(s, (int, Fraction)):
            return self.from_fraction(s)
        if isinstance(s, RationalComplex):
            return self.gaussian(s.re_num, s.im_num, s.den)
        raise TypeError(f"cannot coerce {s!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cyclotomic", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


class FloatField:
    name = "float"
    zero = FloatComplex(0.0)
    one = FloatComplex(1.0)

    def from_fraction(self, fr) -> FloatComplex:
        if isinstance(fr, float):
            return FloatComplex(fr)
        return FloatComplex(float(_as_fraction(fr)))

    def gaussian(self, re_num: int, im_num: int, den: int) -> FloatComplex:
        """(re_num + im_num*i) / den for integers with den > 0, each part
        rounded once, as ``RationalComplex.to_complex`` rounds it."""
        return FloatComplex(complex(re_num / den, im_num / den))

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
        if not tail.isdecimal() or int(tail) < 1:
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
        a, b = b, a
    # the Gaussian rationals hold i = zeta_4
    order = 4 if isinstance(b, RationalField) else b.order
    return cyclotomic_field(math.lcm(a.order, order))
