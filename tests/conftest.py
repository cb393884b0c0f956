import random
from fractions import Fraction

import pytest

from cuntzlab import algebra, analysis, expr, scalars, steprep
from cuntzlab.system import (
    BasisMonomial,
    FiberVector,
    SystemSpec,
    add_fibers,
    max_fiber,
    parse_spec_text,
    sub_degree,
)


# the specs of the product, shift and raising oracles: every scalar field,
# twisted and untwisted
PRODUCT_SPECS = {
    "e23": SystemSpec((2, 3)),
    "e32": SystemSpec((3, 2)),
    "q23": SystemSpec((2, 3), scalar_mode="cyclotomic:8"),
    "f23": SystemSpec((2, 3), scalar_mode="float"),
    "tw23": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"),
    "tw23q8": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 3/8 0 0\nscalars = cyclotomic:8\n"),
    # the rotation algebra: dimension-one fibers, UV = zeta_4 VU
    "rot11": parse_spec_text("k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"),
    # an irrational angle: every phase is an inexact float
    "twf23": parse_spec_text(
        "k = 2\ndims = 2 3\ntheta = 0 0.3183098861837907 0.1 0\nscalars = float\n"
    ),
}


@pytest.fixture
def e23():
    return SystemSpec((2, 3))


@pytest.fixture
def e24():
    return SystemSpec((2, 4))


@pytest.fixture
def tw14():
    # dims (1,1), UV = zeta_4 VU for U = e((0,1);0), V = e((1,0);0)
    return parse_spec_text(
        "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"
    )


@pytest.fixture
def tw23():
    return parse_spec_text(
        "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"
    )


@pytest.fixture
def rng():
    return random.Random(20260817)


def random_fiber(spec, rng, max_sum=2):
    while True:
        fiber = tuple(rng.randint(0, max_sum) for _ in range(spec.k))
        if sum(fiber) <= max_sum:
            return fiber


def random_monomial(spec, rng, max_sum=2):
    fiber = random_fiber(spec, rng, max_sum)
    return spec.monomial(fiber, rng.randrange(spec.dim(fiber)))


def random_coeff(spec, rng):
    if spec.field is scalars.RATIONAL:
        return scalars.RationalComplex(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 1),
        )
    if isinstance(spec.field, scalars.CyclotomicField):
        power = rng.randrange(spec.field.order)
        return spec.field.zeta_power(power) * Fraction(
            rng.randint(-3, 3) or 1, rng.randint(1, 3)
        )
    return scalars.FloatComplex(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))


def random_element(spec, rng, nterms=3, max_sum=2):
    acc = algebra.zero(spec)
    for _ in range(nterms):
        acc = acc + algebra.monomial_pair(
            spec,
            random_monomial(spec, rng, max_sum),
            random_monomial(spec, rng, max_sum),
            random_coeff(spec, rng),
        )
    return acc


def sequential_sum(spec, elements):
    """The sum of ``elements`` added one at a time, each step merging the
    terms of two canonical elements and pruning the keys that cancel: the
    reference for ``+``, ``-``, ``equals``, parsed sums and induced images."""
    out = algebra.zero(spec)
    for e in elements:
        acc = {(x, y): c for c, x, y in out.terms}
        for c, x, y in e.terms:
            cur = acc.get((x, y))
            acc[x, y] = c if cur is None else cur + c
        out = algebra.AlgebraElement(spec, acc)
    return out


def sequential_image(assignment, element):
    """The image of ``element`` under a verified assignment, the reference
    for ``morphisms.map_element``: the digit images of each monomial are
    multiplied onto the identity, the multiplier phase along the digits is
    conjugated back, and the term images are summed by ``sequential_sum``."""
    source, target = assignment.source, assignment.target

    def image(x):
        out, phase, fiber = algebra.identity(target), source.field.one, (0,) * source.k
        for slot0, digit in source.factor_monomial(x):
            e_a = source.unit_fiber(slot0)
            phase = phase * source.multiplier(fiber, e_a)
            fiber = add_fibers(fiber, e_a)
            out = algebra.multiply(out, assignment.image(slot0 + 1, digit))
        return out if phase == source.field.one else out.scaled(phase.conj())

    return sequential_sum(
        target,
        [
            algebra.multiply(image(t.left), image(t.right).adjoint()).scaled(t.coeff)
            for t in element.terms
        ],
    )


def windowed_rewrite_pair(spec, y_prime, x_prime):
    """i(y')* i(x') expanded from its survivor window, the reference for
    ``algebra.rewrite_pair``.

    With s the fiber of x' and t that of y', the survivors are the pairs
    (e(s;lx), e(t;base+lx)) with 0 <= lx < dim(s) and 0 <= base + lx <
    dim(t), for base = y'.index dim(s) - x'.index dim(t), each with the
    phase omega(s,t) conj(omega(t,s)).  Equal fibers leave <x'|y'> times
    the identity, with the field's one.
    """
    s, t = x_prime.fiber, y_prime.fiber
    e = spec.identity_monomial
    if s == t:
        terms = [(spec.field.one, e, e)] if x_prime.index == y_prime.index else []
    else:
        dim_s, dim_t = spec.dim(s), spec.dim(t)
        base = y_prime.index * dim_s - x_prime.index * dim_t
        phase = spec.multiplier(s, t) * spec.multiplier(t, s).conj()
        terms = [
            (phase, BasisMonomial(s, lx), BasisMonomial(t, base + lx))
            for lx in range(max(0, -base), min(dim_s, dim_t - base))
        ]
    return algebra.AlgebraElement.from_terms(spec, terms)


def dense_block(nf, degree):
    """One normal-form block as a dense matrix expanded from its runs.

    Cells that no run covers are zero; overlapping runs fail the test.
    """
    spec = nf.spec
    c, runs = nf.blocks[degree]
    rows = [[None] * spec.dim(sub_degree(c, degree)) for _ in range(spec.dim(c))]
    for row0, col0, length, coeff in runs:
        for f in range(length):
            assert rows[row0 + f][col0 + f] is None, "runs overlap"
            rows[row0 + f][col0 + f] = coeff
    zero = spec.field.zero
    return [[zero if x is None else x for x in row] for row in rows]


def is_positive_semidefinite(matrix, field) -> bool:
    """Exact PSD test for a Hermitian matrix by symmetric pivoting.

    Supports Gaussian-rational entries, where every pivot of a Hermitian
    matrix is an exact rational; requires matrix[i][j] == conj(matrix[j][i]).
    """
    n = len(matrix)
    work = [[matrix[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        d = work[k][k]
        if scalars.field_of(d) is not scalars.RATIONAL:
            raise TypeError("exact PSD pivoting needs rational scalars")
        re, im = d.coeffs
        if im != 0 or re < 0:
            return False
        if d.is_zero():
            # a PSD matrix with zero diagonal entry has a zero row/column
            if any(not work[k][j].is_zero() for j in range(k, n)):
                return False
            continue
        inv = d.inv()
        for i in range(k + 1, n):
            if work[i][k].is_zero():
                continue
            f = work[i][k] * inv
            for j in range(k + 1, n):
                work[i][j] = work[i][j] - f * work[k][j]
            work[i][k] = field.zero
    return True


def format_assignment(assignment) -> str:
    """Render an assignment as the ``(a,i) = <expression>`` lines that
    ``morphisms.parse_assignment`` and the ``relations`` command read."""
    lines = []
    for a in range(1, assignment.source.k + 1):
        for i in range(assignment.source.gen_dims[a - 1]):
            body = expr.format_element(assignment.image(a, i))
            lines.append(f"({a},{i}) = {body}")
    return "\n".join(lines) + "\n"


def inner(spec, v, w):
    """<v, w> = sum v_j * conj(w_j); conjugate-linear in the second slot."""
    if v.fiber != w.fiber:
        raise ValueError("inner product needs vectors in the same fiber")
    out = spec.field.zero
    for j, a in v.entries.items():
        b = w.entries.get(j)
        if b is not None:
            out = out + a * b.conj()
    return out


def vector_projection(spec, v):
    """The rank-one projection i(v) i(v)* / <v, v> (v need not be a unit)."""
    norm = inner(spec, v, v)
    if norm.is_zero():
        raise ValueError("cannot project along the zero vector")
    inv = norm.inv()
    acc: dict = {}
    for j, a in v.entries.items():
        for l, b in v.entries.items():
            acc[(BasisMonomial(v.fiber, j), BasisMonomial(v.fiber, l))] = (
                inv * a * b.conj()
            )
    return algebra.AlgebraElement(spec, acc)


def compressed_pair_element(spec, instance, w, index):
    """alpha_c(Q) (x y*) alpha_c(Q) for the pair at ``index``, expanded.

    The tests' reference for ``analysis.verify_annihilation``.  Q is the
    projection along w and self-adjoint, so this is (alpha_c(Q) i(x))
    (alpha_c(Q) i(y))*.  The right monomials of both factors lie in the
    fiber c + p(w), so their product pairs terms through that one fiber
    instead of expanding the rewrite survivors of two different fibers.
    """
    compress = algebra.shift_endomorphism(
        vector_projection(spec, w), instance.shift_fiber
    )
    x, y = instance.pairs[index]
    left = algebra.multiply(compress, _isometry_of(spec, x))
    right = algebra.multiply(compress, _isometry_of(spec, y))
    return algebra.multiply(left, right.adjoint())


def _isometry_of(spec, x):
    """i(x) for a basis monomial or a fiber vector x."""
    if isinstance(x, BasisMonomial):
        return algebra.isometry(spec, x)
    return vector_element(spec, x)


def dense_vector(spec, fiber, coeffs):
    """The vector of ``fiber`` with the given dense list of coefficients."""
    fiber = spec.check_fiber(fiber)
    coeffs = [spec.field.coerce(c) for c in coeffs]
    if len(coeffs) != spec.dim(fiber):
        raise ValueError(
            f"fiber {fiber} has dimension {spec.dim(fiber)}, "
            f"got {len(coeffs)} coefficients"
        )
    return FiberVector(fiber, len(coeffs), dict(enumerate(coeffs)), spec.field.zero)


def vector_element(spec, v):
    """i(v) = sum_j v_j e(fiber;j)."""
    e = spec.identity_monomial
    return algebra.AlgebraElement.from_terms(
        spec, ((c, BasisMonomial(v.fiber, j), e) for j, c in v.entries.items())
    )


def unit_vector(spec, x):
    """The basis monomial x as a fiber vector with coefficient one."""
    return FiberVector(x.fiber, spec.dim(x.fiber), {x.index: spec.field.one}, spec.field.zero)


def stepwise_orthogonality_step(spec, v, f, g):
    """One step of ``stepwise_annihilating_vector``: v times the unit
    vector of the larger fiber of (f, g) at the free column, through
    ``SystemSpec.mul_vectors``."""
    dim_s, dim_t = spec._dim(f.fiber), spec._dim(g.fiber)
    if dim_s == dim_t:
        raise analysis.HypothesisViolationError(
            f"scheduled pair ({f!r}, {g!r}) has fibers of equal dimension {dim_s}"
        )
    if dim_s > dim_t:
        f, g, dim_s, dim_t = g, f, dim_t, dim_s
    (j,) = v.entries
    g_off, f_off = g.index * v.dim, f.index * v.dim
    lo = max(0, j * dim_t - g_off, j * dim_s - f_off)
    hi = min(v.dim, (j + 1) * dim_t - g_off, (j + 1) * dim_s - f_off)
    free = hi - lo if lo < hi and g_off + lo == j * dim_t else 0
    field = spec.field
    return spec.mul_vectors(v, FiberVector(g.fiber, dim_t, {free: field.one}, field.zero))


def stepwise_annihilating_vector(spec, instance):
    """``analysis.annihilating_vector`` as a fiber vector per step: the
    unit of the trivial fiber, multiplied by ``mul_vectors`` once for every
    scheduled basis pair, whose equal dimensions are checked at each step."""
    c = instance.shift_fiber
    v = unit_vector(spec, spec.identity_monomial)
    for x, y in instance.pairs:
        s_i = sub_degree(c, analysis.fiber_of(x))
        t_i = sub_degree(c, analysis.fiber_of(y))
        for f in spec.basis(tuple(s_i)):
            for g in spec.basis(tuple(t_i)):
                v = stepwise_orthogonality_step(spec, v, f, g)
    return v


def composed_annihilation(spec, instance, w):
    """``analysis.verify_annihilation`` by composing step operators: for
    every pair, the isometry of each piece f1 w of B(c - p(x)) w, adjoint,
    composed with that of each piece g1 w of B(c - p(y)) w, right pieces
    outer.  It costs dim(c - p(x)) dim(c - p(y)) compositions."""
    c = instance.shift_fiber
    for x, y in instance.pairs:
        if any(isinstance(z, FiberVector) and z.is_zero() for z in (x, y)):
            continue  # x y* = 0
        a, b = sub_degree(c, analysis.fiber_of(x)), sub_degree(c, analysis.fiber_of(y))
        m = max_fiber(a, b)
        level_out, level_in = spec.dim(sub_degree(m, a)), spec.dim(sub_degree(m, b))
        lefts = [
            steprep.vector_operator(spec, piece, level_out).conj_transpose()
            for piece in _pieces(spec, a, w)
        ]
        for piece in _pieces(spec, b, w):
            right = steprep.vector_operator(spec, piece, level_in)
            if any(not left.compose(right).is_zero() for left in lefts):
                return False
    return True


def _pieces(spec, a, w):
    """f1 w for f1 = e(a;0), e(a;1), ..., built from the support of w: index
    f1 dim(w) + j and coefficient omega(a, r) w_j, one phase for them all."""
    dim_w, zero = w.dim, spec.field.zero
    phase = spec.multiplier(a, w.fiber)
    scaled = [(j, phase * c) for j, c in w.entries.items()]
    fiber, dim_a = add_fibers(a, w.fiber), spec.dim(a)
    for i in range(dim_a):
        yield FiberVector(fiber, dim_a * dim_w, {i * dim_w + j: c for j, c in scaled}, zero)
