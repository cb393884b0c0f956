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

The matrix is held as swept diagonal runs (see ``runs``).  Both maps send a
run to a run: S (x) 1_t takes the run (j, l, L) to (j*d, l*d, L*d), d =
dim(t), and the corner shift keeps every run in the (0, 0) block.  So an
embedding, a product and a trace cost the runs, not the fiber dimension,
which grows like m^s along the directed system.  ``CoreElement.matrix``
expands the runs into dense rows, which does cost dim^2, for small fibers.
"""

from __future__ import annotations

from fractions import Fraction

from . import algebra
from . import runs as run_ops
from .scalars import field_of
from .system import BasisMonomial, Fiber, SystemSpec, add_fibers, max_fiber, sub_degree


class CoreElement:
    """A dim x dim matrix over the basis of ``fiber``, held as swept runs.

    ``CoreElement(fiber, rows)`` takes dense rows of field scalars; the
    kernels pass ``dim=``, ``runs=`` (already swept) and the field's
    ``zero=`` instead.
    """

    __slots__ = ("fiber", "dim", "runs", "zero")

    def __init__(self, fiber: Fiber, rows=None, *, dim=None, runs=None, zero=None):
        if runs is None:
            dim, zero = len(rows), field_of(rows[0][0]).zero
            cells = [
                (j, l, 1, v)
                for j, row in enumerate(rows)
                for l, v in enumerate(row)
                if not v.is_zero()
            ]
            runs = run_ops.sweep(cells)
        self.fiber = fiber
        self.dim = dim
        self.runs = runs
        self.zero = zero

    @property
    def matrix(self) -> tuple:
        """Dense rows, one tuple per row; this costs dim^2."""
        rows = [[self.zero] * self.dim for _ in range(self.dim)]
        for row0, col0, length, coeff in self.runs:
            for u in range(length):
                rows[row0 + u][col0 + u] = coeff
        return tuple(map(tuple, rows))

    def __repr__(self):
        return f"CoreElement(fiber={self.fiber}, {self.dim}x{self.dim})"


def core_element(spec: SystemSpec, fiber, rows) -> CoreElement:
    fiber = spec.check_fiber(fiber)
    n = spec.dim(fiber)
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"fiber {fiber} needs a {n}x{n} matrix")
    field = spec.field
    return CoreElement(fiber, [[field.coerce(x) for x in r] for r in rows])


def embed(spec: SystemSpec, s: CoreElement, t) -> CoreElement:
    """Tensor with the identity of fiber t: S |-> S (x) 1_t."""
    t = spec.check_fiber(t)
    d = spec.dim(t)
    runs = tuple((j * d, l * d, n * d, v) for j, l, n, v in s.runs)
    return CoreElement(add_fibers(s.fiber, t), dim=s.dim * d, runs=runs, zero=s.zero)


def to_algebra(spec: SystemSpec, s: CoreElement) -> algebra.AlgebraElement:
    blocks = {(0,) * spec.k: (s.fiber, s.runs)} if s.runs else {}
    return algebra.expand_normal_form(algebra.NormalForm(spec, blocks))


def multiply_core(spec: SystemSpec, a: CoreElement, b: CoreElement) -> CoreElement:
    """Matrix product after embedding both into the coordinatewise max fiber;
    an operand already there is kept as it is, as in ``core_equal``."""
    fiber = max_fiber(a.fiber, b.fiber)
    a, b = (s if s.fiber == fiber else embed(spec, s, sub_degree(fiber, s.fiber)) for s in (a, b))
    runs = run_ops.product(a.runs, b.runs)
    return CoreElement(fiber, dim=a.dim, runs=runs, zero=a.zero)


def core_equal(spec: SystemSpec, a: CoreElement, b: CoreElement) -> bool:
    fiber = max_fiber(a.fiber, b.fiber)
    a, b = (s if s.fiber == fiber else embed(spec, s, sub_degree(fiber, s.fiber)) for s in (a, b))
    return run_ops.equal(a.runs, b.runs)


def twisted_unit(spec: SystemSpec, s) -> BasisMonomial:
    """The distinguished unit vector of fiber s (basis index 0).

    These units multiply as u_s u_t = omega(s, t) u_(s+t) and implement the
    corner endomorphism below.
    """
    return BasisMonomial(spec.check_fiber(s), 0)


def corner_shift(spec: SystemSpec, s: CoreElement, r) -> CoreElement:
    """Left-tensor by the rank-one projection of the fiber-r unit.

    The image is the block (0, 0) of the deeper fiber, so the runs stay.
    """
    r = spec.check_fiber(r)
    fiber = add_fibers(r, s.fiber)
    return CoreElement(fiber, dim=spec.dim(r) * s.dim, runs=s.runs, zero=s.zero)


def trace(spec: SystemSpec, s: CoreElement):
    """Matrix trace divided by the fiber dimension (the normalized trace)."""
    acc = spec.field.zero
    for row0, col0, length, coeff in s.runs:
        if row0 == col0:
            acc = acc + coeff * length
    return acc * Fraction(1, s.dim)
