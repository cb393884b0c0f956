"""The run-based core against the dense matrices it replaced.

``DenseCore`` and the ``dense_*`` functions are ``core`` as first written:
a core element is a dense dim x dim tuple of rows, embeddings and corner
shifts fill a new dense matrix, and products take dim^3 steps, so they cost
the fiber dimension and only run on small fibers.  The run form must hold
the same matrix after every operation and give the same verdicts, traces
and algebra elements.  Entries compare with ``==``: structural on the exact
fields, within the field tolerance on floats, where a product or a trace
summed along runs may differ from the dense sum in the last bits.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, core, runs
from cuntzlab.system import (
    BasisMonomial,
    Fiber,
    SystemSpec,
    add_fibers,
    max_fiber,
    parse_spec_text,
    sub_degree,
)

from conftest import random_coeff

SPECS = {
    "e23": SystemSpec((2, 3)),
    "tw23": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"),
    "tw22q8": parse_spec_text("k = 2\ndims = 2 2\ntheta = 0 1/8 3/8 0\nscalars = cyclotomic:8\n"),
    "f23": SystemSpec((2, 3), scalar_mode="float"),
}
FIBERS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
STEPS = [(0, 0), (1, 0), (0, 1), (1, 1)]

ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@dataclass(frozen=True)
class DenseCore:
    fiber: Fiber
    matrix: tuple  # tuple of row tuples, square, dim(fiber) x dim(fiber)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.matrix for x in row)


def dense_core_element(spec: SystemSpec, fiber, rows) -> DenseCore:
    fiber = spec.check_fiber(fiber)
    n = spec.dim(fiber)
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"fiber {fiber} needs a {n}x{n} matrix")
    field = spec.field
    return DenseCore(
        fiber, tuple(tuple(field.coerce(x) for x in r) for r in rows)
    )


def dense_embed(spec: SystemSpec, s: DenseCore, t) -> DenseCore:
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
    return DenseCore(add_fibers(s.fiber, t), tuple(tuple(r) for r in rows))


def dense_embed_to(spec: SystemSpec, s: DenseCore, fiber) -> DenseCore:
    """Embed into a deeper fiber (coordinatewise >= the current one)."""
    fiber = spec.check_fiber(fiber)
    step = sub_degree(fiber, s.fiber)
    if any(c < 0 for c in step):
        raise ValueError(f"cannot embed fiber {s.fiber} into {fiber}")
    if all(c == 0 for c in step):
        return s
    return dense_embed(spec, s, tuple(step))


def dense_to_algebra(spec: SystemSpec, s: DenseCore) -> algebra.AlgebraElement:
    triples = []
    for j, row in enumerate(s.matrix):
        for l, v in enumerate(row):
            if not v.is_zero():
                triples.append(
                    (v, BasisMonomial(s.fiber, j), BasisMonomial(s.fiber, l))
                )
    return algebra.AlgebraElement.from_terms(spec, triples)


def dense_multiply_core(spec: SystemSpec, a: DenseCore, b: DenseCore) -> DenseCore:
    """Matrix product after embedding both into the coordinatewise max fiber."""
    fiber = max_fiber(a.fiber, b.fiber)
    a = dense_embed_to(spec, a, fiber)
    b = dense_embed_to(spec, b, fiber)
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
    return DenseCore(fiber, tuple(rows))


def dense_core_equal(spec: SystemSpec, a: DenseCore, b: DenseCore) -> bool:
    fiber = max_fiber(a.fiber, b.fiber)
    a = dense_embed_to(spec, a, fiber)
    b = dense_embed_to(spec, b, fiber)
    return all(
        (x - y).is_zero() for ra, rb in zip(a.matrix, b.matrix) for x, y in zip(ra, rb)
    )


def dense_corner_shift(spec: SystemSpec, s: DenseCore, r) -> DenseCore:
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
    return DenseCore(add_fibers(r, s.fiber), tuple(tuple(row) for row in rows))


def dense_trace(spec: SystemSpec, s: DenseCore):
    """Matrix trace divided by the fiber dimension (the normalized trace)."""
    acc = spec.field.zero
    for i in range(len(s.matrix)):
        acc = acc + s.matrix[i][i]
    return acc * Fraction(1, spec.dim(s.fiber))


# ---------------------------------------------------------------------------


def random_pair(spec, fiber, rng):
    """One random matrix over ``fiber``, as a run core and as a dense core."""
    n = spec.dim(fiber)
    rows = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, n * n)):
        rows[rng.randrange(n)][rng.randrange(n)] = random_coeff(spec, rng)
    return core.core_element(spec, fiber, rows), dense_core_element(spec, fiber, rows)


def assert_same(run_core, dense):
    assert run_core.fiber == dense.fiber
    assert run_core.dim == len(dense.matrix)
    assert run_core.runs == runs.sweep(run_core.runs)
    assert (not run_core.runs) == dense.is_zero()
    assert run_core.matrix == dense.matrix


@ORACLE
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from(FIBERS),
    st.sampled_from(STEPS),
    st.sampled_from(STEPS),
    st.integers(0, 10**6),
)
def test_embeddings_and_corner_shifts_match_dense(name, fiber, step, r, seed):
    spec = SPECS[name]
    a, dense = random_pair(spec, fiber, random.Random(seed))
    assert_same(a, dense)
    assert_same(core.embed(spec, a, step), dense_embed(spec, dense, step))
    # the dense embedding into the fiber the step reaches, as the products use it
    target = add_fibers(fiber, step)
    assert_same(core.embed(spec, a, step), dense_embed_to(spec, dense, target))
    assert_same(core.corner_shift(spec, a, r), dense_corner_shift(spec, dense, r))
    shifted = core.corner_shift(spec, core.embed(spec, a, step), r)
    assert_same(shifted, dense_corner_shift(spec, dense_embed(spec, dense, step), r))


@ORACLE
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from(FIBERS),
    st.sampled_from(FIBERS),
    st.integers(0, 10**6),
)
def test_products_and_traces_match_dense(name, fa, fb, seed):
    spec = SPECS[name]
    rng = random.Random(seed)
    a, dense_a = random_pair(spec, fa, rng)
    b, dense_b = random_pair(spec, fb, rng)
    ab = core.multiply_core(spec, a, b)
    dense_ab = dense_multiply_core(spec, dense_a, dense_b)
    assert_same(ab, dense_ab)
    assert_same(core.multiply_core(spec, ab, a), dense_multiply_core(spec, dense_ab, dense_a))
    for run_core, dense in [(a, dense_a), (ab, dense_ab)]:
        assert core.trace(spec, run_core) == dense_trace(spec, dense)
        assert core.to_algebra(spec, run_core).terms == dense_to_algebra(spec, dense).terms


@ORACLE
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from(FIBERS),
    st.sampled_from(STEPS),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_equality_verdicts_match_dense(name, fiber, step, seed, perturb):
    spec = SPECS[name]
    rng = random.Random(seed)
    a, dense_a = random_pair(spec, fiber, rng)
    b, dense_b = random_pair(spec, fiber, rng)
    assert core.core_equal(spec, a, b) == dense_core_equal(spec, dense_a, dense_b)
    deep = dense_embed(spec, dense_a, step)
    if perturb:
        # move one entry of the embedded matrix by a nonzero amount
        rows = [list(row) for row in deep.matrix]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[i][j] = rows[i][j] + spec.field.one
        deep = DenseCore(deep.fiber, tuple(map(tuple, rows)))
    other = core.CoreElement(deep.fiber, deep.matrix)
    assert_same(other, deep)
    verdict = core.core_equal(spec, other, a)
    assert verdict == dense_core_equal(spec, deep, dense_a)
    assert verdict is not perturb
