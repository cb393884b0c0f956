"""The run-based normal form against the dense block it replaced.

``dense_normal_form`` is ``algebra.normal_form`` as first written: every
degree block is a dense rows x cols matrix filled term by term, so it costs
the fiber dimensions and only runs on small elements.  The run form must
decide zero the same way, keep the same degrees, and hold the same value in
every entry: equal on the exact fields, the identical complex number on the
float field (where an entry below the tolerance is a zero of the run form).
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, scalars
from cuntzlab.system import SystemSpec, max_fiber, parse_spec_text, sub_degree

from conftest import blocks_of, dense_block, random_element

SPECS = {
    "e23": SystemSpec((2, 3)),
    "e32": SystemSpec((3, 2)),
    "tw23": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"),
    "tw22q8": parse_spec_text("k = 2\ndims = 2 2\ntheta = 0 1/8 3/8 0\nscalars = cyclotomic:8\n"),
    "f23": SystemSpec((2, 3), theta=[[0, 0.1234], [0, 0]], scalar_mode="float"),
    "f32": SystemSpec((3, 2), scalar_mode="float"),
}


def dense_normal_form(a: algebra.AlgebraElement) -> dict:
    """The blocks {degree: (c, dense rows)}, the nonzero ones only."""
    spec = a.spec
    field = spec.field
    by_degree: dict = {}
    for t in a.terms:
        by_degree.setdefault(sub_degree(t.left.fiber, t.right.fiber), []).append(t)

    blocks: dict = {}
    for degree, terms in sorted(by_degree.items()):
        c = terms[0].left.fiber
        for t in terms[1:]:
            c = max_fiber(c, t.left.fiber)
        c_right = sub_degree(c, degree)  # in N^k since c >= every left fiber
        rows, cols = spec.dim(c), spec.dim(tuple(c_right))
        matrix = [[field.zero] * cols for _ in range(rows)]
        for t in terms:
            raise_by = sub_degree(c, t.left.fiber)
            fill = spec.dim(tuple(raise_by))
            phase = (
                spec.multiplier(t.left.fiber, tuple(raise_by))
                * spec.multiplier(t.right.fiber, tuple(raise_by)).conj()
            )
            coeff = t.coeff * phase
            row0 = t.left.index * fill
            col0 = t.right.index * fill
            for f in range(fill):
                row, col = row0 + f, col0 + f
                matrix[row][col] = matrix[row][col] + coeff
        if any(not x.is_zero() for row in matrix for x in row):
            blocks[degree] = (c, tuple(tuple(row) for row in matrix))
    return blocks


def _same_entry(run_value, dense_value):
    if isinstance(dense_value, scalars.FloatComplex):
        if dense_value.is_zero():
            return run_value.value == 0
        return repr(run_value.value) == repr(dense_value.value)
    return run_value == dense_value


def assert_matches_dense(a):
    runs, dense = algebra.normal_form(a), dense_normal_form(a)
    blocks = blocks_of(runs)
    assert (not runs.pairs) == (not dense)
    assert set(blocks) == set(dense)
    for degree, (c, matrix) in dense.items():
        c_runs, block_runs = blocks[degree]
        assert c_runs == c
        assert list(block_runs) == sorted(block_runs, key=lambda r: r[:2])
        assert all(length > 0 and not coeff.is_zero() for _, _, length, coeff in block_runs)
        for row, dense_row in zip(dense_block(runs, degree), matrix, strict=True):
            for x, y in zip(row, dense_row, strict=True):
                assert _same_entry(x, y)
    return runs


def cuntz_sum(spec, fiber, coeff=1):
    """sum_f coeff * i(f) i(f)* over the basis of one fiber (equal to I)."""
    return algebra.AlgebraElement.from_terms(
        spec, ((coeff, f, f) for f in spec.basis(fiber))
    )


def raised(a, rng):
    """a rewritten term by term as  x y* = sum_f (x.f)(y.f)*  over the basis
    of a randomly chosen fiber per term: equal to a, with other terms."""
    spec = a.spec
    out = algebra.zero(spec)
    for t in a.terms:
        middle = cuntz_sum(spec, rng.choice([(1, 0), (0, 1)]), t.coeff)
        left, right = algebra.isometry(spec, t.left), algebra.isometry(spec, t.right)
        out = out + algebra.multiply(algebra.multiply(left, middle), right.adjoint())
    return out


EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@EXAMPLES
@given(st.sampled_from(sorted(SPECS)), st.integers(1, 8), st.integers(0, 10**6))
def test_random_elements_match_dense(name, nterms, seed):
    a = random_element(SPECS[name], random.Random(seed), nterms=nterms)
    assert_matches_dense(a)


@EXAMPLES
@given(st.sampled_from(sorted(SPECS)), st.integers(1, 6), st.integers(0, 10**6))
def test_cancelling_differences_match_dense(name, nterms, seed):
    rng = random.Random(seed)
    a = random_element(SPECS[name], rng, nterms=nterms)
    b = raised(a, rng)
    assert a.terms != b.terms
    assert not assert_matches_dense(a - b).pairs
    # the same difference with one coefficient moved is not zero
    t = b.terms[rng.randrange(len(b.terms))]
    moved = b + algebra.monomial_pair(a.spec, t.left, t.right, 1)
    assert assert_matches_dense(a - moved).pairs


@settings(EXAMPLES, max_examples=30)
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 1), (2, 2)]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_cuntz_sums_minus_identity_match_dense(name, fiber, seed, perturb):
    spec = SPECS[name]
    residual = cuntz_sum(spec, fiber) - algebra.identity(spec)
    if perturb:
        f = spec.monomial(fiber, seed % spec.dim(fiber))
        residual = residual + algebra.monomial_pair(spec, f, f, Fraction(1, 3))
    assert (not assert_matches_dense(residual).pairs) is not perturb


def test_run_layout_of_a_known_block():
    # raised to c = (1,1), dim 6: I is the run [0,6) on the main diagonal,
    # e(1,0;0)e(1,0;0)' cancels its first half, e(0,1;2)e(0,1;2)' adds 3 on
    # rows [4,6), and e(1,0;1)e(1,0;0)' is a run on the diagonal col = row - 3
    spec = SPECS["e23"]
    a = (
        algebra.identity(spec)
        + algebra.monomial_pair(spec, spec.monomial((1, 0), 0), spec.monomial((1, 0), 0), -1)
        + algebra.monomial_pair(spec, spec.monomial((1, 0), 1), spec.monomial((1, 0), 0), 2)
        + algebra.monomial_pair(spec, spec.monomial((0, 1), 2), spec.monomial((0, 1), 2), 3)
    )
    nf = assert_matches_dense(a)
    ((degree, (c, runs)),) = blocks_of(nf).items()
    assert degree == (0, 0) and c == (1, 1)
    assert runs == ((3, 0, 3, 2), (3, 3, 1, 1), (4, 4, 2, 4))
