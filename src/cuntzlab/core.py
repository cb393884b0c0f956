"""The gauge-invariant matrix core and its canonical endomorphisms.

A ``CoreElement`` is a square scalar matrix over one fiber's basis; it stands
for the degree-zero algebra element  sum_jl  S[j][l] e(c;j) e(c;l)'.  Moving
to a deeper fiber tensors with an identity along the lexicographic index
pairing, which matches multiplying by the Cuntz sum of the extra fiber, so
``embed`` commutes with ``to_algebra`` up to algebra equality and the family
of fibers forms a directed system.

``corner_shift`` implements the canonical unit endomorphism: tensoring on
the left by the rank-one projection of the distinguished unit vector
(fiber r, basis index 0).  On algebra elements it agrees with conjugation
by that unit's isometry, twisted or not.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra
from .system import BasisMonomial, Fiber, SystemSpec, add_fibers, max_fiber, sub_degree


@dataclass(frozen=True)
class CoreElement:
    fiber: Fiber
    matrix: tuple  # tuple of row tuples, square, dim(fiber) x dim(fiber)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.matrix for x in row)

    def __repr__(self):
        n = len(self.matrix)
        return f"CoreElement(fiber={self.fiber}, {n}x{n})"


def core_element(spec: SystemSpec, fiber, rows) -> CoreElement:
    fiber = spec.check_fiber(fiber)
    n = spec.dim(fiber)
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"fiber {fiber} needs a {n}x{n} matrix")
    field = spec.field
    return CoreElement(
        fiber, tuple(tuple(field.coerce(x) for x in r) for r in rows)
    )


def zero_core(spec: SystemSpec, fiber) -> CoreElement:
    n = spec.dim(spec.check_fiber(fiber))
    z = spec.field.zero
    return CoreElement(tuple(fiber), tuple(tuple(z for _ in range(n)) for _ in range(n)))


def identity_core(spec: SystemSpec, fiber) -> CoreElement:
    n = spec.dim(spec.check_fiber(fiber))
    z, o = spec.field.zero, spec.field.one
    return CoreElement(
        tuple(fiber),
        tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
    )


def rank_one_core(spec: SystemSpec, x: BasisMonomial, y: BasisMonomial) -> CoreElement:
    """The matrix unit |x><y| (both monomials in the same fiber)."""
    if x.fiber != y.fiber:
        raise ValueError("rank-one core elements pair monomials of one fiber")
    n = spec.dim(x.fiber)
    z, o = spec.field.zero, spec.field.one
    rows = [[z] * n for _ in range(n)]
    rows[x.index][y.index] = o
    return CoreElement(x.fiber, tuple(tuple(r) for r in rows))


def embed(spec: SystemSpec, s: CoreElement, t) -> CoreElement:
    """Tensor with the identity of fiber t: S |-> S (x) 1_t."""
    t = spec.check_fiber(t)
    dim_t = spec.dim(t)
    n = len(s.matrix)
    z = spec.field.zero
    size = n * dim_t
    rows = [[z] * size for _ in range(size)]
    for j in range(n):
        for l in range(n):
            v = s.matrix[j][l]
            if v.is_zero():
                continue
            for q in range(dim_t):
                rows[j * dim_t + q][l * dim_t + q] = v
    return CoreElement(add_fibers(s.fiber, t), tuple(tuple(r) for r in rows))


def embed_to(spec: SystemSpec, s: CoreElement, fiber) -> CoreElement:
    """Embed into a deeper fiber (coordinatewise >= the current one)."""
    fiber = spec.check_fiber(fiber)
    step = sub_degree(fiber, s.fiber)
    if any(c < 0 for c in step):
        raise ValueError(f"cannot embed fiber {s.fiber} into {fiber}")
    if all(c == 0 for c in step):
        return s
    return embed(spec, s, tuple(step))


def to_algebra(spec: SystemSpec, s: CoreElement) -> algebra.AlgebraElement:
    triples = []
    for j, row in enumerate(s.matrix):
        for l, v in enumerate(row):
            if not v.is_zero():
                triples.append(
                    (v, BasisMonomial(s.fiber, j), BasisMonomial(s.fiber, l))
                )
    return algebra.AlgebraElement.from_terms(spec, triples)


def from_algebra(a: algebra.AlgebraElement) -> CoreElement:
    """Core matrix of a degree-zero element (its normal-form runs)."""
    spec = a.spec
    for t in a.terms:
        if t.left.fiber != t.right.fiber:
            raise ValueError(
                f"element has a nonzero-degree term {t.left!r}{t.right!r}'"
            )
    block = algebra.normal_form(a).block((0,) * spec.k)
    if block is None:
        return zero_core(spec, (0,) * spec.k)
    c, runs = block
    rows = [list(r) for r in zero_core(spec, c).matrix]
    for row0, col0, length, coeff in runs:
        for f in range(length):
            rows[row0 + f][col0 + f] = coeff
    return CoreElement(c, tuple(tuple(r) for r in rows))


def multiply_core(spec: SystemSpec, a: CoreElement, b: CoreElement) -> CoreElement:
    """Matrix product after embedding both into the coordinatewise max fiber."""
    fiber = max_fiber(a.fiber, b.fiber)
    a = embed_to(spec, a, fiber)
    b = embed_to(spec, b, fiber)
    n = len(a.matrix)
    z = spec.field.zero
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = z
            for l in range(n):
                x = a.matrix[i][l]
                if x.is_zero():
                    continue
                y = b.matrix[l][j]
                if not y.is_zero():
                    acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return CoreElement(fiber, tuple(rows))


def core_equal(spec: SystemSpec, a: CoreElement, b: CoreElement) -> bool:
    fiber = max_fiber(a.fiber, b.fiber)
    a = embed_to(spec, a, fiber)
    b = embed_to(spec, b, fiber)
    return all(
        (x - y).is_zero() for ra, rb in zip(a.matrix, b.matrix) for x, y in zip(ra, rb)
    )


def twisted_unit(spec: SystemSpec, s) -> BasisMonomial:
    """The distinguished unit vector of fiber s (basis index 0).

    These units multiply as u_s u_t = omega(s, t) u_(s+t) and implement the
    corner endomorphism below.
    """
    return BasisMonomial(spec.check_fiber(s), 0)


def corner_shift(spec: SystemSpec, s: CoreElement, r) -> CoreElement:
    """Left-tensor by the rank-one projection of the fiber-r unit."""
    r = spec.check_fiber(r)
    dim_r = spec.dim(r)
    n = len(s.matrix)
    z = spec.field.zero
    size = dim_r * n
    rows = [[z] * size for _ in range(size)]
    for q in range(n):
        for p in range(n):
            v = s.matrix[q][p]
            if not v.is_zero():
                rows[q][p] = v  # block (j=0, l=0); all other blocks vanish
    return CoreElement(add_fibers(r, s.fiber), tuple(tuple(row) for row in rows))


def trace(spec: SystemSpec, s: CoreElement):
    """Matrix trace divided by the fiber dimension (the normalized trace)."""
    from fractions import Fraction

    acc = spec.field.zero
    for i in range(len(s.matrix)):
        acc = acc + s.matrix[i][i]
    return acc * Fraction(1, spec.dim(s.fiber))
