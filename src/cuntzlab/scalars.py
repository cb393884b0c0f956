"""Scalar arithmetic for the algebra engine.

Three coefficient domains are supported, selected per system:

* rational     -- Gaussian rationals a + b*i with a, b exact rationals:
                  the field Q(zeta_4) under its own name, printed as
                  (a+bi).  Suitable for untwisted systems.
* cyclotomic:q -- the field Q(zeta_q), elements stored as length-phi(q)
                  rational vectors reduced modulo the q-th cyclotomic
                  polynomial, so equality and zero tests are exact.
                  Required for systems twisted by rational angles.
* float        -- complex floating point, zero tested against a 1e-9
                  tolerance.  The only choice for irrational twist angles.

Each field class states which kind it is in its constant ``exact``: True
for the first two, False for float.

Every exact value is a ``Cyclotomic`` on plain integers: a vector of
integer numerators over one common denominator, den > 0 and in lowest terms
(one ``math.gcd`` after each operation), so every value has one
representation and equality compares integers.  A Gaussian rational is
(re_num, im_num) over den.  The ``Fraction`` view ``coeffs`` is derived on
demand for ``repr``.  Each field's ``zero`` and ``one`` are shared
constants, and a field keeps its roots of unity, so the engine never
rebuilds them.  ``SystemSpec`` caches fiber dimensions per fiber on top, but
no multipliers: an exact twisted spec keeps theta * q as integers, so a
phase is one power of zeta_q.

Each exact field builds the class of its values, with ``+``, ``-`` and
unary ``-`` as straight-line code generated for its degree phi.
``KERNEL_MAX_PHI`` = 8, which covers orders 4, 8 and 12 and every order up
to 30 of degree phi <= 8, governs only the product and ``conj``, whose
sources grow like phi^2: up to it they are generated too, the product
writing out the numerator products and their reduction with no loop; above
it the base class's loops over the nonzero numerators serve.  On one shared
2-vCPU host (Python 3.11), at phi = 8 the generated product took 3.7-4.8 us
against 5.0-7.3 us for the loop on values with one or two nonzero
coordinates, and 5.3-6.2 us against 15.2-18.0 us on full ones; at phi = 16,
9.2-10.2 us against 6.3-8.0 us, whose zeros the loop skips, and 15.9-16.9
us against 40.3-43.3 us (median of 7 timings of 100 products, small
numerators).  So the generated product wins on every value up to phi = 8
and from phi = 16 only on dense ones.  The generated ``+`` and negation beat
the loops they replaced: 0.80 against 2.2 us and 0.58 against 1.3 us at
q = 17 (phi 16), 4.6 against 6.0 us and 3.0 against 4.7 us at
q = 97 (phi 96; medians of 25 alternating rounds of 2000 calls, 22 to 25
won).  Compiling them costs 1-2 ms once at q = 17 and 20-25 ms at q = 2310
(phi 480).  The benchmark's twisted workload runs orders 4 and 8 (phi 2
and 4), so no end-to-end run crosses the cutoff.

Scalars of the same field combine with ``+``, ``-``, ``*`` and ``conj``,
an int or Fraction lifting on either side of ``+`` and ``*`` and on the
right of ``-``; no check of the paper divides, so there is no ``/``.  Exact
values of different fields compare and hash as the numbers they are, but
cross-field arithmetic is an error unless the values are first moved with
``coerce`` into their ``common_field`` in the lattice rational ->
cyclotomic(lcm(4, q)) -> cyclotomic(lcm(q, r)) -> float: the Gaussian
rationals hold i, so they meet Q(zeta_q) in Q(zeta_lcm(4, q)).  So rational
and cyclotomic:4 hold the same numbers but stay two fields, which meet in
cyclotomic:4.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

FLOAT_TOLERANCE = 1e-9

# Fields of degree phi <= this get a generated product and conj; larger ones
# keep the loops, whose product skips zero numerators (see the docstring).
KERNEL_MAX_PHI = 8

_TWO_PI = 2.0 * math.pi


def _as_rational(x) -> int | Fraction:
    # returned as it is: an int has a numerator and a denominator too
    if isinstance(x, (int, Fraction)):
        return x
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


def _arithmetic(q: int, phi: int, reduction) -> str:
    """Source of straight-line ``+``, ``-`` and unary ``-`` for the values of
    Q(zeta_q), of degree phi, and of ``*`` and ``conj`` too while phi <=
    ``KERNEL_MAX_PHI``, with no loop and no call but one ``gcd``.

    ``+`` and ``-`` keep a branch for equal denominators.  Coordinate k of a
    product is the sum of a_i*b_j over i + j = k plus, for each m >= phi,
    reduction[m]'s coefficient at k times the sum over i + j = m; a high sum
    that reduces to several coordinates is computed once into a local.
    ``conj`` sends zeta^j to zeta^(q-j).  It and unary ``-`` are invertible
    integer maps of the numerators, so they keep the gcd at 1 and the
    denominator as it is.  The sources read numerators, denominators and
    integer literals, and take ``cls``, ``new`` and ``gcd`` from the
    namespace they are compiled in.
    """
    coords = range(phi)

    def names(x):
        return "".join(f"{x}{i}, " for i in coords)

    def pairs(m):
        return [f"a{i}*b{m - i}" for i in range(max(0, m - phi + 1), min(m, phi - 1) + 1)]

    def signed_sum(row):
        text = "".join(
            f" {'+' if r > 0 else '-'} {'' if abs(r) == 1 else f'{abs(r)}*'}{t}"
            for r, t in row
        )
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def binary(name, body):
        return (
            f"def {name}(self, other):\n"
            "    if other.__class__ is not cls:\n"
            "        other = self._lift(other)\n"
            "        if other is None:\n"
            "            return NotImplemented\n"
            f"    {names('a')}= self.nums\n"
            f"    {names('b')}= other.nums\n"
            f"{body}"
            f"    g = gcd(d, {names('n')})\n"
            "    z = new(cls)\n"
            "    if g == 1:\n"
            f"        z.nums = ({names('n')})\n"
            "        z.den = d\n"
            "    else:\n"
            f"        z.nums = ({''.join(f'n{i} // g, ' for i in coords)})\n"
            "        z.den = d // g\n"
            "    return z\n"
        )

    def unary(name, rows):
        return (
            f"def {name}(self):\n"
            f"    {names('a')}= self.nums\n"
            "    z = new(cls)\n"
            f"    z.nums = ({''.join(signed_sum(row) + ', ' for row in rows)})\n"
            "    z.den = self.den\n"
            "    return z\n"
        )

    sources = []
    for name, op in (("__add__", "+"), ("__sub__", "-")):
        same = "".join(f"        n{i} = a{i} {op} b{i}\n" for i in coords)
        cross = "".join(f"        n{i} = a{i}*f {op} b{i}*d\n" for i in coords)
        sources.append(binary(name, (
            f"    d = self.den\n    f = other.den\n    if d == f:\n{same}"
            f"    else:\n{cross}        d *= f\n"
        )))
    neg = unary("__neg__", [[(-1, f"a{i}")] for i in coords])
    if phi > KERNEL_MAX_PHI:
        return "\n".join([*sources, neg, "__radd__ = __add__\n"])
    rows = [[(1, p) for p in pairs(k)] for k in coords]
    body = []
    for m in range(phi, 2 * phi - 1):
        terms = pairs(m)
        if len(reduction[m]) > 1:
            body.append(f"    t{m} = {' + '.join(terms)}\n")
            terms = [f"t{m}"]
        for k, r in reduction[m]:
            rows[k] += [(r, t) for t in terms]
    body += [f"    n{k} = {signed_sum(row)}\n" for k, row in enumerate(rows)]
    sources.append(binary("__mul__", "".join(body) + "    d = self.den * other.den\n"))
    sources.append(neg)
    conj = [[] for _ in coords]
    for j in coords:
        for k, r in reduction[-j % q]:
            conj[k].append((r, f"a{j}"))
    sources.append(unary("conj", conj))
    sources.append("__radd__ = __add__\n__rmul__ = __mul__\n")
    return "\n".join(sources)


# ---------------------------------------------------------------------------
# scalar value types
# ---------------------------------------------------------------------------


_new = object.__new__


class Cyclotomic:
    """An element of Q(zeta_q) in the power basis 1, zeta, ..., zeta^(phi-1).

    Stored as integer numerators ``nums`` over one common denominator
    ``den > 0`` with gcd(*nums, den) == 1, so each value has exactly one
    representation.  ``coeffs`` derives the ``Fraction`` coefficients.

    Each field's values are instances of the subclass it builds,
    ``field.value_type``, which holds the field as the class attribute
    ``field``.  That subclass carries generated ``+``, ``-`` and unary
    ``-``, and up to ``KERNEL_MAX_PHI`` a generated ``*`` and ``conj``; above
    it the loop product and ``conj`` below serve.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, field: "CyclotomicField", coeffs):
        coeffs = tuple(_as_rational(c) for c in coeffs)
        if len(coeffs) != field.phi:
            raise ValueError("coefficient vector has the wrong length")
        # reduced coefficients over their lcm leave the vector reduced
        den = math.lcm(*(c.denominator for c in coeffs))
        return _cyclotomic(field, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.field == self.field:
                return other
            if other.field.__class__ is not self.field.__class__:
                return None  # the Gaussian rationals and Q(zeta_q): no operator applies
            raise TypeError(
                "cannot mix cyclotomic scalars of orders "
                f"{self.field.order} and {other.field.order}"
            )
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        field = self.field
        nums = _sparse_product(field.phi, field.reduction, self.nums, o.nums)
        return _cyclotomic(field, nums, self.den * o.den)

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        return _substitute(self.field, self, -1)

    def inv(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        # the product of the other Galois conjugates over the norm, which
        # is the product of all of them and a nonzero rational; the first is
        # conjugation, k = q - 1 (for q <= 2 the identity, which still works)
        q = self.field.order
        rest = self.conj()
        for k in range(2, q - 1):
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
        if other.__class__ is not self.__class__:
            if isinstance(other, Cyclotomic):
                # a value of another exact field: compared where both live
                field = common_field(self.field, other.field)
                return field.coerce(self).identical(field.coerce(other))
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def identical(self, other) -> bool:
        """Whether ``other``, a value of this field, is this value: it has
        one representation, so this is ``==``."""
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # the normalized trace: the same in every field that holds the
        # value, and on a rational value the value, which hashes as the int
        # or Fraction.  zeta_q^k is a primitive d-th root, d = q/gcd(k, q),
        # whose normalized trace is the mean of the roots of Phi_d: minus
        # its second-highest coefficient over its degree
        q, trace = self.field.order, Fraction()
        for k, n in enumerate(self.nums):
            if n:
                poly = cyclotomic_polynomial(q // math.gcd(k, q))
                trace -= Fraction(n * poly[-2], len(poly) - 1)
        return hash(trace / self.den)

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
    z = _new(field.value_type)
    z.nums = tuple(nums)
    z.den = den
    return z


class RationalComplex(Cyclotomic):
    """re + im*i from two ints or Fractions: what the values of ``RATIONAL``,
    Q(zeta_4), do differently is this constructor, ``repr`` and float
    conversion."""

    __slots__ = ()

    def __new__(cls, re, im=0):
        return Cyclotomic.__new__(cls, RATIONAL, (re, im))

    def to_complex(self) -> complex:
        # one rounding per part; the power-basis sum would give i the real
        # part cos(pi/2) = 6.1e-17
        re, im = self.nums
        return complex(re / self.den, im / self.den)

    def __repr__(self):
        re, im = self.coeffs
        return f"RationalComplex({re}, {im})"


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

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FloatComplex(self.value * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return FloatComplex(-self.value)

    def conj(self) -> "FloatComplex":
        return FloatComplex(self.value.conjugate())

    def is_zero(self) -> bool:
        return abs(self.value) < FLOAT_TOLERANCE

    def is_one(self) -> bool:
        return abs(self.value - 1.0) < FLOAT_TOLERANCE

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return abs(self.value - o.value) < FLOAT_TOLERANCE

    def identical(self, other) -> bool:
        """Whether ``other`` has this value's bits: equal parts with equal
        sign bits.  A value equal only within the tolerance is not
        identical, nor is a -0.0 part to a 0.0 one."""
        a, b = self.value, other.value
        return (
            a == b
            and math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
            and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)
        )

    def __hash__(self):
        raise TypeError("float scalars are not hashable (tolerance equality)")

    def __repr__(self):
        return f"FloatComplex({self.value!r})"


Scalar = Cyclotomic | FloatComplex


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class _Field:
    """What every field derives from its ``name``: equality, hash and repr."""

    def __eq__(self, other):
        return isinstance(other, _Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"field_named({self.name!r})"


class CyclotomicField(_Field):
    """Constructor object for Q(zeta_q) scalars with exact arithmetic."""

    exact = True
    # what the class of this field's values derives from, and the refusal
    # of a root of unity that the field lacks
    _value_base = Cyclotomic
    _no_root = "exp(2*pi*i*{0}) is not a {1}-th root of unity"

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
        # the class of this field's values, with its generated methods
        namespace = {"__builtins__": {}, "NotImplemented": NotImplemented,
                     "gcd": math.gcd, "new": _new}
        methods = {}
        exec(_arithmetic(order, self.phi, self.reduction), namespace, methods)
        base = self._value_base
        namespace["cls"] = self.value_type = type(
            base.__name__, (base,), {"__slots__": (), "field": self, **methods}
        )
        self._zeta = tuple(_cyclotomic(self, table[k], 1) for k in range(order))
        self.zero = _cyclotomic(self, [0] * self.phi, 1)
        self.one = self._zeta[0]

    def from_fraction(self, fr) -> Cyclotomic:
        fr = _as_rational(fr)
        return _cyclotomic(self, (fr.numerator,) + (0,) * (self.phi - 1), fr.denominator)

    def zeta_power(self, k: int) -> Cyclotomic:
        return self._zeta[k % self.order]

    def gaussian(self, re_num: int, im_num: int, den: int) -> Cyclotomic:
        """(re_num + im_num*i) / den for integers with den > 0."""
        nums = [re_num] + [0] * (self.phi - 1)
        if im_num:
            if self.order % 4 != 0:
                raise ValueError(
                    f"Q(zeta_{self.order}) does not contain i; cannot represent "
                    "an imaginary part exactly"
                )
            # i = zeta^(q/4), whose coordinates are integers
            for k, r in self.reduction[self.order // 4]:
                nums[k] += im_num * r
        return _cyclotomic(self, nums, den)

    def root_of_unity(self, exponent: Fraction) -> Cyclotomic:
        """exp(2*pi*i*exponent); its denominator must divide the order."""
        exponent = _as_rational(exponent) % 1
        if self.order % exponent.denominator != 0:
            raise ValueError(self._no_root.format(exponent, self.order))
        return self.zeta_power(exponent.numerator * (self.order // exponent.denominator))

    def coerce(self, s) -> Cyclotomic:
        if isinstance(s, Cyclotomic):
            if s.field is self:
                return s
            if self.order % s.field.order == 0:
                return _substitute(self, s, self.order // s.field.order)
            if s.field is RATIONAL:  # a real one needs no i
                return self.gaussian(*s.nums, s.den)
            raise TypeError(
                f"cannot embed Q(zeta_{s.field.order}) into Q(zeta_{self.order})"
            )
        if isinstance(s, (int, Fraction)):
            return self.from_fraction(s)
        raise TypeError(f"cannot coerce {s!r} into {self.name}")


class RationalField(CyclotomicField):
    """Q(zeta_4) under the name ``rational``, whose values print as Gaussian
    rationals.  It refuses other roots of unity with its own message, and
    takes a cyclotomic value only when that value is rational."""

    _value_base = RationalComplex
    _no_root = (
        "rational scalars only contain 4th roots of unity; "
        "exp(2*pi*i*{0}) needs a cyclotomic or float field"
    )

    def __init__(self):
        super().__init__(4)
        self.name = "rational"

    def coerce(self, s) -> Cyclotomic:
        if isinstance(s, Cyclotomic):
            if s.field is self:
                return s
            if s.is_rational():
                return _cyclotomic(self, (s.nums[0], 0), s.den)
        elif isinstance(s, (int, Fraction)):
            return self.from_fraction(s)
        raise TypeError(f"cannot coerce {s!r} into the rational scalar field")


class FloatField(_Field):
    name = "float"
    exact = False
    zero = FloatComplex(0.0)
    one = FloatComplex(1.0)

    def gaussian(self, re_num: int, im_num: int, den: int) -> FloatComplex:
        """(re_num + im_num*i) / den for integers with den > 0, each part
        rounded once, as a Gaussian rational's ``to_complex`` rounds it."""
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
        if isinstance(s, Cyclotomic):
            return FloatComplex(s.to_complex())
        raise TypeError(f"cannot coerce {s!r} into the float scalar field")


ScalarField = CyclotomicField | FloatField

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
    return cyclotomic_field(math.lcm(a.order, b.order))
