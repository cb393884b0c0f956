"""Exact linear algebra: the kernel of an integer matrix against the
scalar-field row reduction kept in ``conftest`` as an oracle, the integer
rank and kernel that ``analysis.classify`` reads from one nullspace, and
the sparse reference product."""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from cuntzlab import linalg
from cuntzlab.analysis import rank_and_kernel
from cuntzlab.scalars import RATIONAL, RationalComplex, cyclotomic_field

from conftest import is_positive_semidefinite, nullspace


def _rows(field, data):
    return [[field.coerce(Fraction(x)) for x in row] for row in data]


class TestRankNullspace:
    def test_rank(self):
        assert rank_and_kernel([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)[0] == 2
        assert rank_and_kernel([[1, 0], [0, 1]], 2)[0] == 2
        assert rank_and_kernel([], 2) == (0, (1, 0))

    def test_nullspace_solves(self):
        data = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        rows = _rows(RATIONAL, data)
        basis = nullspace(rows, 3, RATIONAL)
        assert len(basis) == 1
        v = basis[0]
        for row in rows:
            acc = RATIONAL.zero
            for a, b in zip(row, v):
                acc = acc + a * b
            assert acc.is_zero()

    def test_nullspace_trivial(self):
        rows = _rows(RATIONAL, [[1, 0], [0, 1]])
        assert nullspace(rows, 2, RATIONAL) == []

    def test_nullspace_complex_entries(self):
        # x + i y = 0 has kernel spanned by (i, 1) up to scale
        i = RationalComplex(0, 1)
        rows = [[RATIONAL.one, i]]
        basis = nullspace(rows, 2, RATIONAL)
        assert len(basis) == 1
        x, y = basis[0]
        assert (x + i * y).is_zero()
        assert not (x.is_zero() and y.is_zero())

    def test_nullspace_cyclotomic(self):
        k4 = cyclotomic_field(4)
        z = k4.zeta_power(1)
        rows = [[k4.one, z], [z, -k4.one]]  # second row = zeta * first
        basis = nullspace(rows, 2, k4)
        assert len(basis) == 1
        x, y = basis[0]
        assert (x + z * y).is_zero()


@st.composite
def integer_matrices(draw):
    """(rows, ncols): 0-5 rows of 1-5 entries in -6..6."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, max_size=5)), ncols


class TestIntegerNullspace:
    @given(integer_matrices())
    @example(([], 1))
    @example(([[0, 0, 0], [0, 0, 0]], 3))
    @example(([[0, 2, -4], [0, -1, 2], [0, 3, 5]], 3))
    def test_matches_field_reduction(self, matrix):
        rows, ncols = matrix
        basis = linalg.nullspace(rows, ncols)
        want = nullspace(_rows(RATIONAL, rows), ncols, RATIONAL)
        assert [[RATIONAL.from_fraction(x) for x in v] for v in basis] == want
        for v in basis:
            assert all(type(x) is Fraction for x in v)
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0


class TestIntegerKernel:
    def test_primitive_vector(self):
        # 2a + b = 0, b + 2c = 0 -> (1, -2, 1)
        assert rank_and_kernel([[2, 1, 0], [0, 1, 2]], 3) == (2, (1, -2, 1))

    def test_injective(self):
        assert rank_and_kernel([[1, 0], [0, 1]], 2) == (2, None)
        assert rank_and_kernel([[1, 0], [0, 1], [2, 3]], 2) == (2, None)

    def test_sign_normalization(self):
        _, v = rank_and_kernel([[2, 1]], 2)
        assert v is not None
        assert v[0] > 0  # first nonzero entry positive
        assert 2 * v[0] + v[1] == 0

    def test_power_collision(self):
        # dims (4, 8): exponent row (2, 3) -> kernel (3, -2): 4^3 = 8^2
        assert rank_and_kernel([[2, 3]], 2) == (1, (3, -2))


class TestPositiveSemidefinite:
    def test_psd(self):
        assert is_positive_semidefinite(_rows(RATIONAL, [[2, 1], [1, 2]]), RATIONAL)
        assert is_positive_semidefinite(_rows(RATIONAL, [[0, 0], [0, 0]]), RATIONAL)
        assert is_positive_semidefinite(_rows(RATIONAL, [[1, 1], [1, 1]]), RATIONAL)

    def test_not_psd(self):
        assert not is_positive_semidefinite(
            _rows(RATIONAL, [[1, 2], [2, 1]]), RATIONAL
        )
        assert not is_positive_semidefinite(_rows(RATIONAL, [[-1]]), RATIONAL)

    def test_hermitian_complex(self):
        i = RationalComplex(0, 1)
        one = RATIONAL.one
        two = RATIONAL.coerce(Fraction(2))
        # [[2, i], [-i, 2]] has eigenvalues 1 and 3
        assert is_positive_semidefinite([[two, i], [-i, two]], RATIONAL)
        # [[1, 2i], [-2i, 1]] has eigenvalues -1 and 3
        assert not is_positive_semidefinite(
            [[one, two * i], [-(two * i), one]], RATIONAL
        )


class TestSparse:
    def test_matmul_matches_dense(self):
        one = RATIONAL.one
        two = RATIONAL.coerce(Fraction(2))
        a = {(0, 0): one, (0, 1): two, (1, 1): one}
        b = {(0, 0): two, (1, 0): one}
        # dense product: [[1,2],[0,1]] @ [[2],[1]] = [[4],[1]]
        prod = linalg.sparse_matmul(a, b)
        prod = {k: v for k, v in prod.items() if not v.is_zero()}
        assert prod == {(0, 0): RATIONAL.coerce(Fraction(4)), (1, 0): one}
