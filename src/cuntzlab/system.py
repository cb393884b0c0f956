"""Discrete product systems over N^k with lexicographic multiplication.

A system is described by k generator fiber dimensions (m_1, ..., m_k) and an
optional k x k angle matrix theta.  The fiber over s in N^k has dimension
prod_a m_a^(s_a); basis vectors multiply by

    (r, j) * (s, l)  =  omega(r, s) * (r + s, j * dim(s) + l)

where omega(r, s) = exp(2*pi*i * sum_ab theta[a][b] * r_a * s_b).  With theta
omitted the system is untwisted and every product phase is 1.  This
bicharacter-twisted lexicographic family is the only shape the engine
represents; anything else cannot be constructed.

Scalar mode choices and their constraints:

* ``rational``      -- untwisted systems only (phases stay Gaussian rational);
* ``cyclotomic:q``  -- every theta entry must be a fraction with denominator
                       dividing q, so each phase is an exact power of zeta_q;
* ``float``         -- arbitrary (e.g. irrational) angles, 1e-9 zero tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .scalars import RATIONAL, Scalar, ScalarField, field_named

Fiber = tuple[int, ...]
Degree = tuple[int, ...]


class SpecFormatError(ValueError):
    """A system description file failed to parse; carries the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigurationError(ValueError):
    """Inconsistent system parameters (dims, theta, scalar mode)."""


class BasisMonomial(NamedTuple):
    """The index-th standard basis vector of the fiber over ``fiber``."""

    fiber: Fiber
    index: int

    def __repr__(self):
        coords = ",".join(str(c) for c in self.fiber)
        return f"e({coords};{self.index})"


class FiberVector:
    """A vector in one fiber, stored by its support.

    ``entries`` maps a basis index to its coefficient and holds only nonzero
    coefficients, so every operation costs the size of the support, not the
    fiber dimension ``dim``, which the annihilation construction drives to
    astronomical sizes.  ``coeffs`` materializes the dense coefficient tuple
    on demand; it costs ``dim`` and is meant for small fibers.  Two vectors
    are equal when they share the fiber and the nonzero coefficients.
    """

    __slots__ = ("fiber", "dim", "entries", "_zero")

    def __init__(self, fiber: Fiber, dim: int, entries: dict, zero: Scalar):
        self.fiber = fiber
        self.dim = dim
        self.entries = {j: c for j, c in entries.items() if not c.is_zero()}
        self._zero = zero

    @property
    def coeffs(self) -> tuple:
        out = [self._zero] * self.dim
        for j, c in self.entries.items():
            out[j] = c
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, FiberVector):
            return NotImplemented
        return self.fiber == other.fiber and self.entries == other.entries

    def __repr__(self):
        return f"FiberVector({self.fiber}, {dict(sorted(self.entries.items()))})"


def add_fibers(s: Fiber, t: Fiber) -> Fiber:
    return tuple(map(add, s, t))


def sub_degree(s: Fiber, t: Fiber) -> Degree:
    return tuple(map(sub, s, t))


def max_fiber(s: Fiber, t: Fiber) -> Fiber:
    return tuple(map(max, s, t))


class SystemSpec:
    """Immutable description of one twisted lexicographic product system.

    ``gen_dims``   -- fiber dimensions of the k generators (each >= 1).
    ``theta``      -- optional k x k matrix of Fractions/floats; None means
                      untwisted.
    ``scalar_mode``-- 'rational', 'cyclotomic:<q>' or 'float'.

    A spec caches what it derives from fibers, filled on first use and
    never evicted, so each cache grows with the distinct keys used on the
    spec: ``_dims`` holds one dimension per fiber, and ``fiber_quads`` one
    entry per fiber quadruple (x fiber, s, y fiber, t) that
    ``algebra.multiply`` met, with the product fibers and the phase
    factors of its survivors.  Multiplier phases are not cached: a
    twisted spec keeps theta * q as integers, so a phase is one power of
    zeta_q, exact on a cyclotomic spec and rounded once on float.
    """

    def __init__(self, gen_dims, theta=None, scalar_mode: str = "rational"):
        gen_dims = tuple(gen_dims)
        if not gen_dims:
            raise ConfigurationError("a system needs at least one generator")
        if not all(type(m) is int for m in gen_dims):
            raise ConfigurationError(f"generator dimensions must be ints, got {gen_dims!r}")
        if any(m < 1 for m in gen_dims):
            raise ConfigurationError("generator dimensions must be >= 1")
        self.k = len(gen_dims)
        self.gen_dims = gen_dims
        self.field: ScalarField = field_named(scalar_mode)
        self.scalar_mode = self.field.name

        if theta is not None:
            theta = tuple(tuple(row) for row in theta)
            if len(theta) != self.k or any(len(row) != self.k for row in theta):
                raise ConfigurationError(
                    f"theta must be a {self.k}x{self.k} matrix"
                )
            for row in theta:
                for entry in row:
                    if isinstance(entry, bool) or not isinstance(entry, (int, float, Fraction)):
                        raise ConfigurationError(
                            f"theta entries must be numbers, got {entry!r}"
                        )
                    if isinstance(entry, float) and not math.isfinite(entry):
                        raise ConfigurationError(
                            f"theta entries must be finite, got {entry!r}"
                        )
        self.theta = theta

        # a finite float converts to a Fraction exactly
        self.is_twisted = theta is not None and any(
            Fraction(x) % 1 != 0 for row in theta for x in row
        )

        # theta * q in integers on a twisted spec, q the cyclotomic order or,
        # on float, the least common denominator of theta: its phases are
        # powers of zeta_q, and a float phase's exponent is reduced mod q
        # exactly before it is rounded
        self._theta_q = None
        if self.is_twisted:
            if self.field is RATIONAL:
                raise ConfigurationError(
                    "rational scalar mode supports untwisted systems only; "
                    "use cyclotomic:<q> or float"
                )
            if self.scalar_mode.startswith("cyclotomic:"):
                q = self.field.order
                for row in self.theta:
                    for x in row:
                        if isinstance(x, float):
                            raise ConfigurationError(
                                "cyclotomic scalar mode needs rational theta "
                                f"entries, got float {x!r}"
                            )
                        if q % Fraction(x).denominator != 0:
                            raise ConfigurationError(
                                f"theta entry {x} has denominator not dividing "
                                f"the cyclotomic order {q}"
                            )
            else:
                q = math.lcm(*(Fraction(x).denominator for row in self.theta for x in row))
            self._q = q
            self._theta_q = tuple(tuple(int(Fraction(x) * q) for x in row) for row in self.theta)

        # filled on first use, keyed by fibers that passed check_fiber
        self._dims: dict[Fiber, int] = {}
        self.fiber_quads: dict[tuple[Fiber, Fiber, Fiber, Fiber], tuple] = {}

    # -- derived structure ------------------------------------------------

    def dim(self, s: Fiber) -> int:
        """Dimension of the fiber over s: prod_a m_a^(s_a)."""
        return self._dim(self.check_fiber(s))

    def _dim(self, s: Fiber) -> int:
        # s has passed check_fiber: (1.0, 0) hashes like (1, 0), so a cache
        # consulted before the check would let it through
        out = self._dims.get(s)
        if out is None:
            out = 1
            for m, e in zip(self.gen_dims, s):
                out *= m**e
            self._dims[s] = out
        return out

    def check_fiber(self, s) -> Fiber:
        if len(s) == self.k:
            for c in s:
                # exactly an int: a bool prints as True, which no parser reads
                if type(c) is not int or c < 0:
                    break
            else:
                return tuple(s)
        raise ValueError(f"{s!r} is not an N^{self.k} element")

    def unit_fiber(self, slot: int) -> Fiber:
        """The fiber with a single 1 at the given 0-based generator slot."""
        if not 0 <= slot < self.k:
            raise ValueError(f"generator slot {slot} out of range for k={self.k}")
        return tuple(1 if a == slot else 0 for a in range(self.k))

    def monomial(self, fiber, index: int) -> BasisMonomial:
        fiber = self.check_fiber(fiber)
        # an int only, as in check_fiber: 1.0 hashes like 1
        if not (type(index) is int and 0 <= index < self._dim(fiber)):
            raise ValueError(
                f"index {index!r} out of range for fiber {fiber} "
                f"(dimension {self._dim(fiber)})"
            )
        return BasisMonomial(fiber, index)

    def basis(self, fiber) -> list[BasisMonomial]:
        fiber = self.check_fiber(fiber)
        return [BasisMonomial(fiber, j) for j in range(self._dim(fiber))]

    @property
    def identity_monomial(self) -> BasisMonomial:
        return BasisMonomial((0,) * self.k, 0)

    # -- multiplication ----------------------------------------------------

    def multiplier(self, s: Fiber, t: Fiber) -> Scalar:
        """omega(s, t) = exp(2*pi*i * <theta s, t>) in the scalar field."""
        return self._phase(self.check_fiber(s), self.check_fiber(t))

    def _phase(self, s: Fiber, t: Fiber) -> Scalar:
        # s and t have passed check_fiber; see _dim
        if not self.is_twisted:
            return self.field.one
        power = sum(c * a * b for row, a in zip(self._theta_q, s) for c, b in zip(row, t))
        if self.field.exact:
            return self.field.zeta_power(power)
        return self.field.root_of_unity(Fraction(power % self._q, self._q))

    def mul_basis(self, x: BasisMonomial, y: BasisMonomial) -> tuple[Scalar, BasisMonomial]:
        """Product of basis vectors: a phase and the resulting monomial."""
        s = self.check_fiber(x.fiber)
        t = self.check_fiber(y.fiber)
        return self._phase(s, t), BasisMonomial(
            add_fibers(s, t), x.index * self._dim(t) + y.index
        )

    def mul_vectors(self, v: FiberVector, w: FiberVector) -> FiberVector:
        """Lexicographic product of two fiber vectors (a twisted tensor)."""
        phase = self.multiplier(v.fiber, w.fiber)
        dim_w = w.dim
        out = {
            j * dim_w + l: phase * a * b
            for j, a in v.entries.items()
            for l, b in w.entries.items()
        }
        return FiberVector(
            add_fibers(v.fiber, w.fiber), v.dim * dim_w, out, self.field.zero
        )

    # -- factoring ----------------------------------------------------------

    def factor_monomial(self, x: BasisMonomial, order=None) -> list[tuple[int, int]]:
        """Peel ``x`` into generator digits, grouped by ``order``.

        ``order`` is a permutation of range(k) (default ascending): every
        occurrence of generator order[0] comes first, then order[1], and so
        on.  Returns [(generator, digit), ...] such that multiplying the
        corresponding generator monomials left to right in the untwisted
        system gives x, whatever the order chosen.
        """
        order = tuple(range(self.k)) if order is None else tuple(order)
        if sorted(order) != list(range(self.k)):
            # no tuple in the message: ``morphisms.extend`` passes its 1-based
            # order shifted down by one
            raise ValueError(
                f"a digit order must list each of the {self.k} generator slots once"
            )
        remaining = list(self.check_fiber(x.fiber))
        idx = x.index
        digits: list[tuple[int, int]] = []
        for a in order:
            for _ in range(x.fiber[a]):
                remaining[a] -= 1
                d = self._dim(tuple(remaining))
                digits.append((a, idx // d))
                idx %= d
        return digits

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return (
            self.gen_dims == other.gen_dims
            and self.theta == other.theta
            and self.scalar_mode == other.scalar_mode
        )

    def __repr__(self):
        twist = "" if self.theta is None else f", theta={self.theta!r}"
        return f"SystemSpec({self.gen_dims}{twist}, scalar_mode={self.scalar_mode!r})"


def same_system(a: SystemSpec, b: SystemSpec) -> bool:
    return a is b or a == b


# ---------------------------------------------------------------------------
# description file format
# ---------------------------------------------------------------------------
#
#   k = 2
#   dims = 2 3
#   theta = 0 1/4 0 0          (k*k entries, row-major; optional)
#   scalars = cyclotomic:4     (optional; default rational)
#
# '#' starts a comment; blank lines are ignored.


def _parse_number(token: str, line_number: int):
    try:
        if "/" in token:
            return Fraction(token)
        if any(c in token for c in ".eE"):
            return float(token)
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise SpecFormatError(line_number, f"bad numeric entry {token!r}") from None


def parse_spec_text(text: str) -> SystemSpec:
    values: dict[str, tuple[int, str]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFormatError(line_number, f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("k", "dims", "theta", "scalars"):
            raise SpecFormatError(line_number, f"unknown key {key!r}")
        if key in values:
            raise SpecFormatError(line_number, f"duplicate key {key!r}")
        values[key] = (line_number, value.strip())

    for required in ("k", "dims"):
        if required not in values:
            last = len(text.splitlines()) or 1
            raise SpecFormatError(last, f"missing required line '{required} = ...'")

    ln, raw_k = values["k"]
    if not raw_k.removeprefix("+").isdecimal() or int(raw_k) < 1:
        raise SpecFormatError(ln, f"k must be a positive integer, got {raw_k!r}")
    k = int(raw_k)

    ln, raw_dims = values["dims"]
    tokens = raw_dims.split()
    if len(tokens) != k:
        raise SpecFormatError(ln, f"expected {k} dimensions, got {len(tokens)}")
    dims = []
    for tok in tokens:
        if not tok.isdecimal() or int(tok) < 1:
            raise SpecFormatError(ln, f"bad dimension {tok!r}")
        dims.append(int(tok))

    theta = None
    if "theta" in values:
        ln, raw_theta = values["theta"]
        tokens = raw_theta.split()
        if len(tokens) != k * k:
            raise SpecFormatError(
                ln, f"theta needs {k * k} row-major entries, got {len(tokens)}"
            )
        entries = [_parse_number(tok, ln) for tok in tokens]
        theta = tuple(tuple(entries[r * k : (r + 1) * k]) for r in range(k))

    scalar_mode = "rational"
    if "scalars" in values:
        ln, scalar_mode = values["scalars"]
        try:
            field_named(scalar_mode)
        except ValueError as exc:
            raise SpecFormatError(ln, str(exc)) from None

    try:
        return SystemSpec(dims, theta=theta, scalar_mode=scalar_mode)
    except ConfigurationError as exc:
        raise SpecFormatError(values.get("theta", values["dims"])[0], str(exc)) from None
