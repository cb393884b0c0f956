import random
from fractions import Fraction

import pytest

from cuntzlab import algebra, analysis, expr, morphisms, scalars, steprep
from cuntzlab.runs import sweep
from cuntzlab.scalars import field_of
from cuntzlab.system import (
    BasisMonomial,
    FiberVector,
    SystemSpec,
    add_fibers,
    max_fiber,
    parse_spec_text,
    same_system,
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
    # degree 16, past scalars.KERNEL_MAX_PHI: the loop product and conj
    "tw23q17": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 3/17 0 0\nscalars = cyclotomic:17\n"),
    # the rotation algebra: dimension-one fibers, UV = zeta_4 VU
    "rot11": parse_spec_text("k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"),
    # an irrational angle: every phase is an inexact float
    "twf23": parse_spec_text(
        "k = 2\ndims = 2 3\ntheta = 0 0.3183098861837907 0.1 0\nscalars = float\n"
    ),
}


def flat_runs(a) -> tuple:
    """The runs of an element with their fiber pair in front, (fx, fy,
    row0, col0, length, coeff), in the element's order."""
    return tuple((fx, fy, *run) for fx, fy, runs in a.pairs for run in runs)


def pairs_of(runs) -> list:
    """The pairs (fx, fy, runs) of runs (fx, fy, row0, col0, length,
    coeff): one per fiber pair, in order of first appearance, each holding
    its runs in the given order."""
    groups: dict = {}
    for fx, fy, *run in runs:
        groups.setdefault((fx, fy), []).append(tuple(run))
    return [(fx, fy, tuple(group)) for (fx, fy), group in groups.items()]


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
    terms of two canonical elements by ``from_terms`` and pruning the keys
    that cancel: the reference for ``+``, ``-``, ``equals``, parsed sums and
    induced images."""
    out = algebra.zero(spec)
    for e in elements:
        out = algebra.AlgebraElement.from_terms(spec, out.terms + e.terms)
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


def term_map_element(assignment, element):
    """``morphisms.map_element`` as it walked the term view, the reference
    for its walk of each fiber pair's cells: the image of each term c x y*
    is extend(x) extend(y)* scaled by c, summed by ``algebra.add_runs`` in
    term order."""
    morphisms._require_verified(assignment)
    if not same_system(element.spec, assignment.source):
        raise ValueError("element does not belong to the assignment's source")
    field = assignment.target.field
    acc: dict = {}
    for term in element.terms:
        left = morphisms.extend(assignment.source, assignment, term.left)
        right = morphisms.extend(assignment.source, assignment, term.right)
        image = algebra.multiply(left, right.adjoint())
        c = field.coerce(term.coeff)
        # an exact coefficient of one scales nothing
        if not (field.exact and c.is_one()):
            image = image.scaled(c)
        algebra.add_runs(acc, image, 1)
    return algebra.summed(assignment.target, acc)


def _monomial_text(term) -> str:
    left, right = term.left, term.right
    left_trivial = all(c == 0 for c in left.fiber)
    right_trivial = all(c == 0 for c in right.fiber)
    if left_trivial and right_trivial:
        return "I"
    try:
        if right_trivial:
            return repr(left)
        if left_trivial:
            return f"{right!r}'"
        return f"{left!r}*{right!r}'"
    except ValueError:  # an index of a fiber of dimension past 10^limit
        raise expr._past_digit_limit("a monomial index that exceeds {} digits") from None


def term_format_element(a) -> str:
    """``expr.format_element`` as it printed the term view, one ``Term``
    and its monomials' reprs per cell: the printer's oracle."""
    return expr._signed_sum(
        piece
        for term in a.terms
        for piece in expr._term_pieces(term.coeff, _monomial_text(term))
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


def identical(a, b) -> bool:
    """Whether two scalars of one field are the same value: ``==`` on the
    exact fields, where a value has one representation, and the same
    ``repr``, so the same bits, on float."""
    return a == b if field_of(a).exact else repr(a) == repr(b)


def piecewise_sweep(runs) -> tuple:
    """The per-piece sweep, the reference for ``runs.sweep``, which merges
    adjacent pieces with identical sums: here each nonzero piece of the
    endpoint cut is its own run.

    Runs are grouped by diagonal offset col0 - row0.  On one offset the
    sorted run endpoints cut the diagonal into pieces, and each piece sums,
    in the order of ``runs``, the coefficients of the runs covering it, as
    an entry-by-entry accumulation would (bit for bit on floats).  Nonzero
    pieces are kept.  The cost is the number of runs times the pieces each
    covers, whatever their lengths.
    """
    by_offset: dict[int, list] = {}
    for row0, col0, length, coeff in runs:
        by_offset.setdefault(col0 - row0, []).append((row0, row0 + length, coeff))
    out = []
    for offset, segments in by_offset.items():
        points = sorted({p for start, end, _ in segments for p in (start, end)})
        where = {p: i for i, p in enumerate(points)}
        sums = [None] * (len(points) - 1)
        for start, end, coeff in segments:
            for i in range(where[start], where[end]):
                sums[i] = coeff if sums[i] is None else sums[i] + coeff
        out += [
            (points[i], points[i] + offset, points[i + 1] - points[i], v)
            for i, v in enumerate(sums)
            if v is not None and not v.is_zero()
        ]
    # swept runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


def blocks_of(nf) -> dict:
    """The blocks {degree: (c, runs)} of a normal form, whose one fiber
    pair (c, c - g) per degree g holds that degree's runs."""
    return {sub_degree(fx, fy): (fx, runs) for fx, fy, runs in nf.pairs}


def dense_block(nf, degree):
    """One normal-form block as a dense matrix expanded from its runs.

    Cells that no run covers are zero; overlapping runs fail the test.
    """
    spec = nf.spec
    c, runs = blocks_of(nf)[degree]
    rows = [[None] * spec.dim(sub_degree(c, degree)) for _ in range(spec.dim(c))]
    for row0, col0, length, coeff in runs:
        for f in range(length):
            assert rows[row0 + f][col0 + f] is None, "runs overlap"
            rows[row0 + f][col0 + f] = coeff
    zero = spec.field.zero
    return [[zero if x is None else x for x in row] for row in rows]


# Row reduction over a scalar field: the dense reference that the
# annihilation oracle and the integer ``linalg.nullspace`` are checked
# against.  It needs only field operations (add, mul, inv, is_zero), so it
# serves the Gaussian-rational and cyclotomic fields exactly and the float
# field up to its tolerance.


def _rref(rows, field):
    """Reduced row echelon form; returns (matrix, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace(rows, ncols: int, field):
    """Basis of the right kernel, one vector per pivot-free column, in
    column order (so callers can deterministically take the first)."""
    mat, pivots = _rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        basis.append(vec)
    return basis


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
    return algebra.AlgebraElement.from_terms(spec, [
        (inv * a * b.conj(), BasisMonomial(v.fiber, j), BasisMonomial(v.fiber, l))
        for j, a in v.entries.items()
        for l, b in v.entries.items()
    ])


def compressed_pair_element(spec, instance, w, index, members=None):
    """alpha_c(Q) (x y*) alpha_c(Q) for the pair at ``index``, expanded;
    ``members`` gives x and y, basis monomials or fiber vectors of the
    pair's fibers, in place of the pair's monomials.

    The tests' reference for ``analysis.verify_annihilation``.  Q is the
    projection along w and self-adjoint, so this is (alpha_c(Q) i(x))
    (alpha_c(Q) i(y))*.  The right monomials of both factors lie in the
    fiber c + p(w), so their product pairs terms through that one fiber
    instead of expanding the rewrite survivors of two different fibers.
    """
    compress = algebra.shift_endomorphism(
        vector_projection(spec, w), instance.shift_fiber
    )
    x, y = members or instance.pairs[index]
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
        s_i = sub_degree(c, x.fiber)
        t_i = sub_degree(c, y.fiber)
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
        a, b = sub_degree(c, x.fiber), sub_degree(c, y.fiber)
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


# ``runs.raise_terms`` as it was when each raised term was one ``_extend``
# call, the reference for the builder that merges a fiber pair in one loop


def _extend(runs: list, run: tuple) -> None:
    """Append ``run`` to ``runs``, or lengthen the last run of ``runs`` when
    ``run`` continues its diagonal: it starts at (row0 + length, col0 +
    length) of that run, with an ``identical`` coefficient."""
    if runs:
        row0, col0, length, coeff = runs[-1]
        if row0 + length == run[0] and col0 + length == run[1] and identical(coeff, run[3]):
            runs[-1] = (row0, col0, length + run[2], coeff)
            return
    runs.append(run)


def stepwise_raise_terms(terms, placements) -> dict:
    """{key: swept runs} of the (coeff, x, y) terms.

    ``placements`` maps each fiber pair (x.fiber, y.fiber) to its
    placement (key, stripe, phase), None standing for a phase of exactly
    one.  A key's runs come pair by pair in order of first appearance and
    in term order within a pair, which is the term order when a pair's
    terms are adjacent; the sweep's float sums follow it.  Raised terms
    are merged by ``_extend``, so a Cuntz sum is one run before it is
    swept.  A key whose runs cancel maps to ().
    """
    pairs: dict = {}
    for term in terms:
        pairs.setdefault((term[1].fiber, term[2].fiber), []).append(term)
    by_key: dict = {}
    for pair, group in pairs.items():
        key, stripe, phase = placements[pair]
        runs = by_key.setdefault(key, [])
        for c, x, y in group:
            if phase is not None:
                c = c * phase
            _extend(runs, (x.index * stripe, y.index * stripe, stripe, c))
    for key, runs in by_key.items():
        by_key[key] = sweep(runs)
    return by_key


# ---------------------------------------------------------------------------
# The term-list algebra: ``AlgebraElement``, ``add_terms``, ``multiply`` and
# ``_raised_blocks`` as they were when an element stored one term per entry,
# the reference for elements made of runs.  ``TermElement`` is that class;
# the fiber-quadruple data is computed afresh instead of cached on the spec,
# and raising goes through ``stepwise_raise_terms``, which takes terms.
# ---------------------------------------------------------------------------


def _term_sort_key(t):
    degree = sub_degree(t.left.fiber, t.right.fiber)
    return (degree, t.left.fiber, t.left.index, t.right.index)


class TermElement:
    """An immutable finite sum of terms c * e(left) e(right)'.

    Terms are kept merged, zero-pruned and canonically sorted (by degree,
    then left fiber, then indices), so ``==`` is structural identity of the
    canonical form.  Semantic equality in the algebra is ``term_equals``.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, term_map: dict):
        monomial = spec.monomial
        for x, y in term_map:
            monomial(*x)
            monomial(*y)
        self.spec = spec
        self.terms = TermElement._from_map(spec, term_map).terms

    @classmethod
    def _canonical(cls, spec, terms):
        """An element of terms that are already merged, nonzero and sorted."""
        out = cls.__new__(cls)
        out.spec = spec
        out.terms = tuple(terms)
        return out

    @classmethod
    def _from_map(cls, spec, term_map: dict):
        """The element of a {(left, right): coeff} map whose monomials are
        checked or built from checked ones: zeros pruned, terms sorted."""
        terms = [algebra.Term(c, x, y) for (x, y), c in term_map.items() if not c.is_zero()]
        terms.sort(key=_term_sort_key)
        return cls._canonical(spec, terms)

    @staticmethod
    def from_terms(spec, triples):
        acc: dict = {}
        field = spec.field
        for coeff, x, y in triples:
            c = field.coerce(coeff)
            key = (x, y)
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
        return TermElement(spec, acc)

    def __add__(self, other):
        acc = {(x, y): c for c, x, y in self.terms}
        add_terms(acc, other.terms, 1)
        return TermElement._from_map(self.spec, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negation keeps the terms distinct, nonzero and in canonical order
        return TermElement._canonical(
            self.spec, [algebra.Term(-c, x, y) for c, x, y in self.terms]
        )

    def scaled(self, coeff):
        # scaling keeps the terms distinct and in canonical order
        c = self.spec.field.coerce(coeff)
        terms = [algebra.Term(c * t.coeff, t.left, t.right) for t in self.terms]
        return TermElement._canonical(self.spec, [t for t in terms if not t.coeff.is_zero()])

    def adjoint(self):
        return TermElement._from_map(
            self.spec, {(t.right, t.left): t.coeff.conj() for t in self.terms}
        )

    def __eq__(self, other):
        return self.terms == other.terms


def add_terms(acc: dict, terms, sign: int) -> None:
    """Add ``sign`` (+1 or -1) times the (coeff, left, right) terms of one
    element into the {(left, right): coeff} map ``acc``, dropping a key the
    moment its coefficient sums to zero: the rule for every sum of
    elements.  A sum built so, one element at a time, prunes as adding the
    elements one by one does; on float a residue below the zero tolerance
    is dropped, not carried into later additions.
    """
    for c, x, y in terms:
        key = (x, y)
        cur = acc.get(key)
        if cur is None:
            acc[key] = c if sign > 0 else -c
            continue
        total = cur + c if sign > 0 else cur - c
        if total.is_zero():
            del acc[key]
        else:
            acc[key] = total


_UNSEEN = object()


def _term_window(spec, y_prime, x_prime):
    """The survivors of i(y')* i(x') as one window (s, t, dim_s, dim_t,
    base, lo, hi), or None if there are none."""
    s, t = x_prime.fiber, y_prime.fiber
    if s == t:
        if x_prime.index != y_prime.index:
            return None
        e = spec.identity_monomial.fiber
        return e, e, 1, 1, 0, 0, 1
    dim_s, dim_t = spec._dim(s), spec._dim(t)
    base = y_prime.index * dim_s - x_prime.index * dim_t
    # survivors are the lx with 0 <= base + lx < dim_t
    lo, hi = max(0, -base), min(dim_s, dim_t - base)
    if lo >= hi:
        return None
    return s, t, dim_s, dim_t, base, lo, hi


def _keyed_element(spec, acc: dict):
    """The element of {(degree, left fiber, left index, right fiber, right
    index): coeff}; the keys sort in the canonical term order."""
    monomials: dict = {}
    terms = []
    for (_, fx, ix, fy, iy), c in sorted(acc.items()):
        if c.is_zero():
            continue
        x = monomials.get((fx, ix))
        if x is None:
            x = monomials[(fx, ix)] = BasisMonomial(fx, ix)
        y = monomials.get((fy, iy))
        if y is None:
            y = monomials[(fy, iy)] = BasisMonomial(fy, iy)
        terms.append(algebra.Term(c, x, y))
    return TermElement._canonical(spec, terms)


def _term_fiber_data(spec, x, y, window):
    """(degree, x.s, y.t, factors) of a survivor window of x ... y*."""
    xf, s, yf, t = (x.fiber, window[0], y.fiber, window[1])
    fx, fy = add_fibers(xf, s), add_fibers(yf, t)
    factors = ()
    if spec.is_twisted:
        phase = spec._phase
        factors = (phase(s, t) * phase(t, s).conj(), phase(xf, s), phase(yf, t).conj())
        if spec.field.exact:
            folded = factors[0] * factors[1] * factors[2]
            factors = () if folded.is_one() else (folded,)
    return sub_degree(fx, fy), fx, fy, factors


def _one_term_product(spec, ta, tb):
    """The product of two one-term elements."""
    ca, x, ya = ta
    cb, xb, y = tb
    window = _term_window(spec, ya, xb)
    if window is None:
        return TermElement._canonical(spec, ())
    _, fx, fy, factors = _term_fiber_data(spec, x, y, window)
    coeff = ca * cb
    for f in factors:
        coeff = coeff * f
    if coeff.is_zero():
        return TermElement._canonical(spec, ())
    s, t, dim_s, dim_t, base, lo, hi = window
    if s == t:
        return TermElement._canonical(spec, [algebra.Term(coeff, x, y)])
    i0 = x.index * dim_s
    j0 = y.index * dim_t + base
    terms = [
        algebra.Term(coeff, BasisMonomial(fx, i0 + lx), BasisMonomial(fy, j0 + lx))
        for lx in range(lo, hi)
    ]
    return TermElement._canonical(spec, terms)


def term_multiply(a, b):
    """The product a*b, one survivor window per pair of terms."""
    spec = a.spec
    if len(a.terms) == 1 and len(b.terms) == 1:
        return _one_term_product(spec, a.terms[0], b.terms[0])
    windows: dict = {}
    acc: dict = {}
    for ca, x, ya in a.terms:
        for cb, xb, y in b.terms:
            key = (ya.fiber, ya.index, xb.fiber, xb.index)
            window = windows.get(key, _UNSEEN)
            if window is _UNSEEN:
                window = windows[key] = _term_window(spec, ya, xb)
            if window is None:
                continue
            s, t, dim_s, dim_t, base, lo, hi = window
            g, fx, fy, factors = _term_fiber_data(spec, x, y, window)
            coeff = ca * cb
            for f in factors:
                coeff = coeff * f
            i0 = x.index * dim_s
            j0 = y.index * dim_t + base
            for lx in range(lo, hi):
                k = (g, fx, i0 + lx, fy, j0 + lx)
                cur = acc.get(k)
                acc[k] = coeff if cur is None else cur + coeff
    return _keyed_element(spec, acc)


def term_raised_blocks(spec, terms) -> dict:
    """The nonzero blocks {degree: (c, runs)} of the (coeff, left, right)
    terms, in degree order."""
    terms = list(terms)
    pairs = list({(x.fiber, y.fiber): None for _, x, y in terms})
    degrees = [sub_degree(fx, fy) for fx, fy in pairs]
    tops: dict = {}  # degree -> c, the max of its left fibers
    for (fx, _), g in zip(pairs, degrees):
        tops[g] = max_fiber(tops[g], fx) if g in tops else fx
    placements = {}
    for (fx, fy), g in zip(pairs, degrees):
        r = sub_degree(tops[g], fx)
        phase = None
        if spec.is_twisted:
            # an exact phase of one is skipped; float keeps its product
            phase = spec._phase(fx, r) * spec._phase(fy, r).conj()
            if spec.field.exact and phase.is_one():
                phase = None
        placements[(fx, fy)] = (g, spec._dim(r), phase)
    raised = stepwise_raise_terms(terms, placements)
    return {g: (tops[g], raised[g]) for g in sorted(raised) if raised[g]}


def term_equals(a, b) -> bool:
    """Equality in the algebra: structural fast path, then normal form."""
    if a.terms == b.terms:
        return True
    acc = {(t.left, t.right): t.coeff for t in a.terms}
    add_terms(acc, b.terms, -1)
    return not term_raised_blocks(a.spec, ((c, x, y) for (x, y), c in acc.items()))
