"""Matrix core: embeddings, products, corner shifts, normalized trace."""

import time
from fractions import Fraction

import pytest

from cuntzlab import algebra, core, scalars
from cuntzlab.core import (
    CoreElement,
    core_element,
    core_equal,
    corner_shift,
    embed,
    multiply_core,
    to_algebra,
    trace,
    twisted_unit,
)

from conftest import random_coeff


def _random_core(spec, rng, fiber):
    n = spec.dim(fiber)
    return core_element(
        spec, fiber, [[random_coeff(spec, rng) for _ in range(n)] for _ in range(n)]
    )


def _indicator(spec, fiber, cells):
    """The core with 1 on the (row, col) ``cells`` and 0 elsewhere."""
    n = spec.dim(fiber)
    return core_element(spec, fiber, [[int((r, c) in cells) for c in range(n)] for r in range(n)])


def _identity(spec, fiber):
    return _indicator(spec, fiber, {(i, i) for i in range(spec.dim(fiber))})


def _from_algebra(spec, a):
    """The core of a degree-zero element: the runs of its one normal-form block."""
    c, runs = algebra.normal_form(a).blocks.get((0,) * spec.k)
    return CoreElement(c, dim=spec.dim(c), runs=runs, zero=spec.field.zero)


class TestConstruction:
    def test_shape_validation(self, e23):
        with pytest.raises(ValueError):
            core_element(e23, (1, 0), [[1, 2, 3], [4, 5, 6]])
        ok = core_element(e23, (1, 0), [[1, 2], [3, 4]])
        assert ok.matrix[1][0] == scalars.RationalComplex(3)

    def test_zero_identity(self, e23):
        zero = _indicator(e23, (1, 1), set())
        assert zero.is_zero() and zero.runs == ()
        ident = _identity(e23, (1, 0))
        assert ident.matrix[0][0].is_one() and ident.matrix[0][1].is_zero()

    def test_rank_one(self, e23):
        u = _indicator(e23, (0, 1), {(1, 2)})
        assert u.matrix[1][2].is_one()
        assert sum(1 for row in u.matrix for v in row if not v.is_zero()) == 1
        assert u.runs == ((1, 2, 1, e23.field.one),)


class TestEmbedding:
    def test_identity_pattern(self, e23):
        # S (x) 1_t: entry (j,l) fans out along the lexicographic pairing
        s = core_element(e23, (1, 0), [[0, 1], [0, 0]])
        out = embed(e23, s, (0, 1))
        assert out.fiber == (1, 1)
        expected = {(q, 3 + q) for q in range(3)}
        nonzero = {
            (i, j)
            for i, row in enumerate(out.matrix)
            for j, v in enumerate(row)
            if not v.is_zero()
        }
        assert nonzero == expected

    def test_embed_requires_a_step_in_n_k(self, e23):
        # embedding (1,0) into (1,0) is the zero step, into (0,1) a negative one
        s = _identity(e23, (1, 0))
        same = embed(e23, s, (0, 0))
        assert (same.fiber, same.dim, same.runs) == (s.fiber, s.dim, s.runs)
        with pytest.raises(ValueError):
            embed(e23, s, (-1, 1))

    def test_core_ops_embed_only_operands_below_the_max(self, e23, monkeypatch):
        calls = []

        def counted(spec, s, t):
            calls.append((s.fiber, t))
            return embed(spec, s, t)

        monkeypatch.setattr(core, "embed", counted)
        a, b = _identity(e23, (1, 0)), _identity(e23, (0, 1))
        assert core_equal(e23, a, a)
        assert multiply_core(e23, a, a).runs == a.runs
        assert calls == []
        assert multiply_core(e23, a, embed(e23, b, (1, 0))).fiber == (1, 1)
        assert calls == [((1, 0), (0, 1))]
        assert core_equal(e23, a, b)
        assert calls[1:] == [((1, 0), (0, 1)), ((0, 1), (1, 0))]

    def test_embedding_respects_algebra_equality(self, e23, rng):
        # the directed system is compatible with the algebra inclusions
        for fiber, step in [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 0))]:
            a = _random_core(e23, rng, fiber)
            assert algebra.equals(
                to_algebra(e23, embed(e23, a, step)), to_algebra(e23, a)
            )

    def test_embedding_twisted(self, tw23, rng):
        a = _random_core(tw23, rng, (1, 0))
        assert algebra.equals(
            to_algebra(tw23, embed(tw23, a, (0, 1))), to_algebra(tw23, a)
        )

    def test_embed_multiplicative(self, e23, rng):
        a = _random_core(e23, rng, (1, 0))
        b = _random_core(e23, rng, (1, 0))
        prod = multiply_core(e23, a, b)
        lhs = embed(e23, prod, (0, 1))
        rhs = multiply_core(e23, embed(e23, a, (0, 1)), embed(e23, b, (0, 1)))
        assert core_equal(e23, lhs, rhs)

    def test_deep_embedding_costs_the_runs(self, e23):
        # fiber (41, 0) has dimension 2^41: no dense matrix of it fits in
        # memory, but the embedding is the same three runs, scaled
        a = core_element(e23, (1, 0), [[1, 2], [0, 3]])
        t0 = time.process_time()
        deep = embed(e23, a, (40, 0))
        assert deep.dim == 2**41 and len(deep.runs) == 3
        assert core_equal(e23, deep, a)
        assert not core_equal(e23, deep, _identity(e23, (1, 0)))
        assert trace(e23, deep) == trace(e23, a)
        square = multiply_core(e23, deep, a)
        assert square.fiber == (41, 0)
        assert core_equal(e23, square, multiply_core(e23, a, a))
        assert time.process_time() - t0 < 1.0


class TestAlgebraRoundTrip:
    def test_round_trip(self, e23, rng):
        # the degree-zero normal-form block of to_algebra(a) holds a's runs
        a = _random_core(e23, rng, (1, 1))
        back = _from_algebra(e23, to_algebra(e23, a))
        assert core_equal(e23, a, back)

    def test_from_algebra_merges_fibers(self, e23):
        # terms at fibers (1,0) and (0,1) meet in the (1,1) matrix algebra
        x = e23.monomial((1, 0), 0)
        y = e23.monomial((0, 1), 2)
        a = algebra.monomial_pair(e23, x, x) + algebra.monomial_pair(e23, y, y)
        out = _from_algebra(e23, a)
        assert out.fiber == (1, 1)
        assert algebra.equals(to_algebra(e23, out), a)


class TestMultiplication:
    def test_matches_algebra_product(self, e23, rng):
        for fa, fb in [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 0))]:
            a = _random_core(e23, rng, fa)
            b = _random_core(e23, rng, fb)
            prod = multiply_core(e23, a, b)
            assert algebra.equals(
                to_algebra(e23, prod),
                algebra.multiply(to_algebra(e23, a), to_algebra(e23, b)),
            )

    def test_matches_algebra_product_twisted(self, tw23, rng):
        a = _random_core(tw23, rng, (1, 0))
        b = _random_core(tw23, rng, (0, 1))
        prod = multiply_core(tw23, a, b)
        assert algebra.equals(
            to_algebra(tw23, prod),
            algebra.multiply(to_algebra(tw23, a), to_algebra(tw23, b)),
        )

    def test_identity_neutral(self, e23, rng):
        a = _random_core(e23, rng, (1, 0))
        assert core_equal(e23, multiply_core(e23, a, _identity(e23, (0, 1))), a)


class TestCornerShift:
    def test_unit_relation(self, tw23):
        # u_s u_t = omega(s, t) u_(s+t)
        s, t = (1, 0), (0, 1)
        phase, prod = tw23.mul_basis(twisted_unit(tw23, s), twisted_unit(tw23, t))
        assert prod == twisted_unit(tw23, (1, 1))
        assert phase == tw23.multiplier(s, t)

    def test_agrees_with_isometry_conjugation(self, e23, rng):
        for r in [(1, 0), (0, 1)]:
            a = _random_core(e23, rng, (1, 0))
            u = algebra.isometry(e23, twisted_unit(e23, r))
            lhs = to_algebra(e23, corner_shift(e23, a, r))
            rhs = algebra.multiply(
                algebra.multiply(u, to_algebra(e23, a)), u.adjoint()
            )
            assert algebra.equals(lhs, rhs)

    def test_agrees_with_isometry_conjugation_twisted(self, tw23, rng):
        a = _random_core(tw23, rng, (0, 1))
        u = algebra.isometry(tw23, twisted_unit(tw23, (1, 0)))
        lhs = to_algebra(tw23, corner_shift(tw23, a, (1, 0)))
        rhs = algebra.multiply(algebra.multiply(u, to_algebra(tw23, a)), u.adjoint())
        assert algebra.equals(lhs, rhs)

    def test_semigroup(self, e23, rng):
        a = _random_core(e23, rng, (1, 0))
        twice = corner_shift(e23, corner_shift(e23, a, (0, 1)), (1, 0))
        # composing unit corners multiplies the units, so this is the
        # (1,1)-corner up to the unit pairing
        once = corner_shift(e23, a, (1, 1))
        assert algebra.equals(to_algebra(e23, twice), to_algebra(e23, once))


class TestTrace:
    def test_normalized(self, e23):
        assert trace(e23, _identity(e23, (1, 1))).is_one()
        assert trace(e23, _indicator(e23, (1, 0), set())).is_zero()

    def test_embedding_invariant(self, e23, rng):
        a = _random_core(e23, rng, (1, 0))
        assert trace(e23, a) == trace(e23, embed(e23, a, (0, 1)))

    def test_tracial_on_products(self, e23, rng):
        a = _random_core(e23, rng, (1, 0))
        b = _random_core(e23, rng, (1, 0))
        lhs = trace(e23, multiply_core(e23, a, b))
        rhs = trace(e23, multiply_core(e23, b, a))
        assert (lhs - rhs).is_zero()

    def test_rank_one_value(self, e23):
        u = _indicator(e23, (0, 1), {(1, 1)})
        assert trace(e23, u) == scalars.RATIONAL.coerce(Fraction(1, 3))
