"""Classification and the compression-annihilation construction."""

import math
import random

import pytest

from cuntzlab import algebra, analysis, linalg, scalars, steprep
from cuntzlab.analysis import (
    HypothesisViolationError,
    annihilating_vector,
    annihilation_instance,
    classify,
    exponent_matrix,
    nonsimplicity_witness,
    rank_and_kernel,
    verify_annihilation,
)
from cuntzlab.system import BasisMonomial, FiberVector, SystemSpec, parse_spec_text

from conftest import compressed_pair_element, dense_vector, unit_vector


# nextprime(10^19) and nextprime(10^20): no factorizer splits their product
# quickly, so classification must not need its prime factors
P19 = 10000000000000000051
P20 = 100000000000000000039
PRIMES = (2, 3, 5, 7, 11, 13, 101, 1000003, P19, P20)


class TestExponentMatrix:
    def test_coprime_dims(self):
        base, rows = exponent_matrix((2, 3))
        assert base == (2, 3)
        assert rows == ((1, 0), (0, 1))

    def test_power_collision(self):
        base, rows = exponent_matrix((4, 8))
        assert base == (2,)
        assert rows == ((2, 3),)

    def test_mixed(self):
        base, rows = exponent_matrix((12, 18))
        assert base == (2, 3)
        assert rows == ((2, 1), (1, 2))

    def test_dimension_one(self):
        assert exponent_matrix((1, 5)) == ((5,), ((0, 1),))

    def test_base_need_not_be_prime(self):
        assert exponent_matrix((6, 36)) == ((6,), ((1, 2),))


def _random_factored(rng):
    """Generator dimensions as {prime: exponent} dicts, built rather than
    factored: dimension one, perfect powers, and powers of an earlier
    dimension, which share its factors."""
    pool = rng.sample(PRIMES, rng.randint(1, 4))
    factored = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.1:
            f = {}
        elif roll < 0.4 and factored:
            f = dict(rng.choice(factored))
        else:
            f = {p: e for p in pool if (e := rng.randint(0, 3))}
        j = rng.choice((1, 1, 1, 2, 3, 6))
        factored.append({p: e * j for p, e in f.items()})
    return factored


def _prime_power_base(fm, fn):
    """common_power_base from known prime exponents."""
    if not fm or set(fm) != set(fn):
        return None
    p0 = min(fm)
    g = math.gcd(fm[p0], fn[p0])
    a, b = fm[p0] // g, fn[p0] // g
    if any(fm[p] * b != fn[p] * a for p in fm):
        return None
    return math.prod(p ** (fm[p] // a) for p in fm), a, b


def common_power_base(m, n):
    """(l, a, b) with m = l^a, n = l^b, gcd(a, b) = 1 and l largest, or None,
    as ``classify`` reports it for the untwisted system (m, n)."""
    if m < 2 or n < 2:
        return None
    return classify(SystemSpec((m, n))).power_base


class TestExponentMatrixAgainstPrimes:
    """The coprime-base matrix decides what the prime-exponent matrix does."""

    FIXED = [
        [{}],
        [{}, {}],
        [{2: 1, 3: 1}, {2: 2, 3: 2}],  # (6, 36)
        [{2: 2, 3: 1}, {2: 1, 3: 2}],  # (12, 18)
        [{2: 2}, {2: 3}],  # (4, 8)
        [{2: 6}, {3: 4}, {2: 3, 3: 2}],  # (64, 81, 72)
        [{2: 4}, {2: 6}],  # (16, 64)
        [{999983: 1}, {999983: 2}],  # the largest prime below 10^6 and its square
        [{P19: 1, P20: 1}, {P19: 1}],
        [{P19: 1, P20: 1}, {P19: 2, P20: 2}],
        [{P19: 1, P20: 1}, {P19: 3, P20: 3}, {}],
        [{2: 14000}, {2: 1}],  # thousands of digits, long runs of one factor
        [{2: 3000, 3: 1}, {2: 1, 3: 2000}, {2: 1000, 3: 1000}, {5: 4000}],
        [{}, {2: 2, 3: 1}],  # (1, 12)
        [{5: 3}, {}],  # (125, 1)
    ]

    def cases(self):
        rng = random.Random(20261018)
        return self.FIXED + [_random_factored(rng) for _ in range(1200)]

    def test_matches_prime_matrix(self):
        for factored in self.cases():
            dims = tuple(math.prod(p**e for p, e in f.items()) for f in factored)
            k = len(dims)
            primes = sorted({p for f in factored for p in f})
            prime_rows = [[f.get(p, 0) for f in factored] for p in primes]

            base, rows = exponent_matrix(dims)
            assert all(b > 1 for b in base), dims
            assert all(math.gcd(x, y) == 1 for i, x in enumerate(base) for y in base[i + 1 :]), dims
            assert tuple(
                math.prod(b**row[a] for b, row in zip(base, rows)) for a in range(k)
            ) == dims
            rank, kernel = rank_and_kernel(prime_rows, k)
            assert rank_and_kernel(rows, k) == (rank, kernel), dims

            spec = SystemSpec(dims)
            if 1 in dims:
                e_a = tuple(int(a == dims.index(1)) for a in range(k))
                witness = (e_a, tuple(2 * c for c in e_a))
            elif kernel is not None:
                witness = (
                    tuple(max(v, 0) for v in kernel),
                    tuple(max(-v, 0) for v in kernel),
                )
            else:
                witness = None
            injective = witness is None

            power_base = None
            if k == 2 and not injective and dims != (1, 1):
                m, n = dims
                if m == 1:
                    power_base = (n, 0, 1)
                elif n == 1:
                    power_base = (m, 1, 0)
                else:
                    power_base = _prime_power_base(*factored)
                    assert common_power_base(m, n) == power_base, dims
            if injective:
                kind = "SimplePurelyInfinite"
            else:
                kind = "TensorCircle" if power_base else "NonSimple"

            c = classify(spec)
            assert (c.kind, c.rank, c.witness, c.power_base) == (
                kind, rank, witness, power_base,
            ), dims

    def test_every_pair_below_200(self):
        sympy = pytest.importorskip("sympy")
        for m in range(1, 200):
            fm = sympy.factorint(m)
            for n in range(1, 200):
                fn = sympy.factorint(n)
                power_base = _prime_power_base(fm, fn) if m > 1 and n > 1 else None
                assert common_power_base(m, n) == power_base, (m, n)
                # a dimension-one generator is a zero column of the exponent
                # matrix, so classify's power base reaches (1, n) and (m, 1)
                if m == 1 and n > 1:
                    power_base = (n, 0, 1)
                elif n == 1 and m > 1:
                    power_base = (m, 1, 0)
                if power_base:
                    kind = "TensorCircle"
                else:
                    kind = "NonSimple" if (m, n) == (1, 1) else "SimplePurelyInfinite"
                c = classify(SystemSpec((m, n)))
                assert (c.kind, c.power_base) == (kind, power_base), (m, n)


class TestCommonPowerBase:
    def test_known_values(self):
        assert common_power_base(4, 8) == (2, 2, 3)
        assert common_power_base(16, 64) == (4, 2, 3)
        assert common_power_base(6, 36) == (6, 1, 2)
        assert common_power_base(8, 8) == (8, 1, 1)
        assert common_power_base(36, 216) == (6, 2, 3)
        assert common_power_base(P19 * P20, (P19 * P20) ** 3) == (P19 * P20, 1, 3)

    def test_no_common_base(self):
        assert common_power_base(2, 3) is None
        assert common_power_base(12, 18) is None
        assert common_power_base(4, 6) is None
        assert common_power_base(1, 5) is None


class TestDimensionInjective:
    def test_injective(self, e23):
        assert classify(e23).witness is None
        assert classify(SystemSpec((12, 18))).witness is None

    def test_collision_witness(self, e24):
        s, t = classify(e24).witness
        assert s == (2, 0) and t == (0, 1)
        assert e24.dim(s) == e24.dim(t)

    def test_dimension_one_generator(self):
        spec = SystemSpec((1, 5))
        s, t = classify(spec).witness
        assert spec.dim(s) == spec.dim(t) == 1
        assert s != t

    def test_three_generators(self):
        spec = SystemSpec((2, 4, 3))
        s, t = classify(spec).witness
        assert spec.dim(s) == spec.dim(t)


class TestClassify:
    def test_simple_purely_infinite(self, e23):
        out = classify(e23)
        assert out.kind == "SimplePurelyInfinite"
        assert out.verdict() == "SimplePurelyInfinite"
        assert out.witness is None
        assert classify(SystemSpec((3, 5))).kind == "SimplePurelyInfinite"
        assert classify(SystemSpec((12, 18))).kind == "SimplePurelyInfinite"

    def test_tensor_circle_collision(self, e24):
        out = classify(e24)
        assert out.verdict() == "TensorCircle(2)"
        assert out.witness == ((2, 0), (0, 1))
        assert out.power_base == (2, 1, 2)

    def test_tensor_circle_power_base(self):
        out = classify(SystemSpec((4, 8)))
        assert out.verdict() == "TensorCircle(2)"
        assert out.power_base == (2, 2, 3)
        out = classify(SystemSpec((6, 36)))
        assert out.verdict() == "TensorCircle(6)"
        assert out.power_base == (6, 1, 2)

    def test_dimension_one_generator(self):
        out = classify(SystemSpec((1, 5)))
        assert out.verdict() == "TensorCircle(5)"
        assert out.power_base == (5, 0, 1)

    def test_all_dimension_one(self):
        assert classify(SystemSpec((1, 1))).kind == "NonSimple"

    def test_twisted_collision_unknown(self):
        spec = parse_spec_text(
            "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n"
        )
        out = classify(spec)
        assert out.kind == "Unknown"
        assert out.twisted

    def test_three_generator_collision(self):
        out = classify(SystemSpec((2, 4, 3)))
        assert out.kind == "NonSimple"
        assert out.witness is not None

    @pytest.mark.parametrize(
        "dims", [(2, 3), (2, 4), (6, 36), (4, 6), (1, 5), (1, 1), (2, 4, 3)]
    )
    def test_builds_matrix_and_kernel_once(self, monkeypatch, dims):
        calls = {"matrix": 0, "nullspace": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            analysis, "exponent_matrix", counted("matrix", analysis.exponent_matrix)
        )
        monkeypatch.setattr(linalg, "nullspace", counted("nullspace", linalg.nullspace))
        classify(SystemSpec(dims))
        assert calls == {"matrix": 1, "nullspace": 1}


class TestNonsimplicityWitness:
    def test_separating_character(self, e24):
        b, tw = nonsimplicity_witness(e24, (2, 0), (0, 1))
        # distinguished representation collapses the difference
        for level in (4, 8, 16):
            assert steprep.evaluate(b, level).is_zero()
        # the character-twisted one does not
        assert not steprep.evaluate_twisted(b, tw, 4).is_zero()
        assert tw.values == (scalars.RationalComplex(1), scalars.RationalComplex(-1))

    def test_quarter_character(self, e24):
        b, _ = nonsimplicity_witness(e24, (2, 0), (0, 1))
        tw = steprep.CharacterTwist(
            [scalars.RationalComplex(0, 1), scalars.RationalComplex(1)]
        )
        assert not steprep.evaluate_twisted(b, tw, 4).is_zero()

    def test_nonzero_in_algebra(self, e24):
        b, _ = nonsimplicity_witness(e24, (2, 0), (0, 1))
        assert not algebra.normal_form(b).is_zero()

    def test_cyclotomic_fallback(self):
        # every coordinate of s - t is even, so the order-2 character fails
        # and the construction reaches for a third root of unity
        spec = SystemSpec((2, 2))
        b, tw = nonsimplicity_witness(spec, (2, 0), (0, 2))
        k3 = scalars.cyclotomic_field(3)
        assert any(isinstance(v, scalars.Cyclotomic) for v in tw.values)
        assert steprep.evaluate(b, 4).is_zero()
        assert not steprep.evaluate_twisted(b, tw, 4).is_zero()

    def test_validation(self, e24, tw23):
        with pytest.raises(ValueError):
            nonsimplicity_witness(e24, (1, 0), (1, 0))
        with pytest.raises(ValueError):
            nonsimplicity_witness(e24, (1, 0), (0, 1))
        with pytest.raises(ValueError):
            nonsimplicity_witness(tw23, (1, 0), (0, 1))


class TestAnnihilationInstance:
    def test_default_shift_fiber(self, e23):
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        assert inst.shift_fiber == (1, 1)

    def test_validation(self, e23):
        x = e23.monomial((1, 0), 0)
        with pytest.raises(ValueError):
            annihilation_instance(e23, [(x, e23.monomial((1, 0), 1))])
        with pytest.raises(ValueError):
            annihilation_instance(
                e23,
                [(x, e23.monomial((0, 1), 0))],
                shift_fiber=(1, 0),
            )

    def test_members_checked(self, e23):
        # a negative fiber, and an index past the fiber's dimension 2, in
        # either slot
        y = e23.monomial((0, 1), 0)
        for bad in (BasisMonomial((-1, 0), 0), BasisMonomial((1, 0), 5)):
            for pair in ((bad, y), (y, bad)):
                with pytest.raises(ValueError):
                    annihilation_instance(e23, [pair])
                with pytest.raises(ValueError):
                    annihilation_instance(e23, [pair], shift_fiber=(2, 2))

    def test_members_are_basis_monomials(self, e23):
        # a fiber vector, of a valid or a negative fiber, zero or not, a
        # plain (fiber, index) tuple and None are refused in either slot
        y = e23.monomial((0, 1), 0)
        one, zero = e23.field.one, e23.field.zero
        for bad in (
            dense_vector(e23, (1, 0), [one, one]),
            unit_vector(e23, e23.monomial((1, 0), 0)),
            FiberVector((1, 0), 2, {}, zero),
            FiberVector((-1, 0), 1, {0: one}, zero),
            ((1, 0), 0),
            None,
        ):
            for pair in ((bad, y), (y, bad)):
                with pytest.raises(TypeError, match="expected a basis monomial"):
                    annihilation_instance(e23, [pair])
                with pytest.raises(TypeError, match="expected a basis monomial"):
                    annihilation_instance(e23, [pair], shift_fiber=(2, 2))

    def test_equal_dimension_schedule_rejected(self, e24):
        inst = annihilation_instance(
            e24, [(e24.monomial((2, 0), 0), e24.monomial((0, 1), 0))]
        )
        with pytest.raises(HypothesisViolationError):
            annihilating_vector(e24, inst)


def _window_oracle_bad_indices(n):
    """Indices m for which compressing x y* along e((0,n);m) leaves a residue.

    Pure integer arithmetic, independent of the package.  With c = (1,1) on
    dims (2,3) and w the m-th basis vector over (0,n), an inner factor
    (f w)* x y* (f' w) reduces to e((0,n+1);p)* e((1,n);q) with p = 3^n a + m
    (a < 3, factoring the first generator out of f w) and q = 3^n a' + m
    (a' < 2).  On the common refinement into 2*3^(n+1) cells those monomials
    cover the windows {2p, 2p+1} and {3q, 3q+1, 3q+2}; a factor vanishes
    exactly when its windows are disjoint, so index m survives iff some
    (a, a') pair overlaps.
    """
    block = 3**n
    bad = set()
    for m in range(block):
        ps = [block * a + m for a in range(3)]
        qs = [block * a + m for a in range(2)]
        for p in ps:
            cells_p = {2 * p, 2 * p + 1}
            for q in qs:
                if cells_p & {3 * q, 3 * q + 1, 3 * q + 2}:
                    bad.add(m)
    return bad


class TestAnnihilationConstruction:
    def test_constructed_vector_annihilates(self, e23):
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        w = annihilating_vector(e23, inst)
        assert w.fiber == (0, 6)
        assert w.entries
        assert verify_annihilation(e23, inst, w)
        # the compressed element vanishes in the algebra itself, not just
        # in the distinguished representation
        elem = compressed_pair_element(e23, inst, w, 0)
        assert algebra.normal_form(elem).is_zero()

    def test_check_tests_windows_not_compositions(self, e23, tw23, monkeypatch):
        # kill e(3,0;0) e(0,3;0) has c = (3,3): the check pairs B(0,3) with
        # B(3,0).  In units of dim(w), B(0,3) has 27 blocks of length 8 and
        # B(3,0) 8 blocks of length 27; each short block meets one long
        # block, and the 7 that hold a long block's end meet two: 34 window
        # tests, where composing the schedule took 27 * 8 compositions
        def refuse(*args, **kwargs):
            raise AssertionError(
                "the check must not compose step operators, build fiber "
                "vectors or build algebra elements"
            )

        block_product = analysis._block_product
        for spec in (e23, tw23):
            inst = annihilation_instance(
                spec, [(spec.monomial((3, 0), 0), spec.monomial((0, 3), 0))]
            )
            w = annihilating_vector(spec, inst)
            windows = []

            def counted(shift, pieces, level_out, level_in):
                windows.append(len(pieces))
                return block_product(shift, pieces, level_out, level_in)

            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_block_product", counted)
                patch.setattr(steprep, "vector_operator", refuse)
                patch.setattr(steprep.StepOperator, "compose", refuse)
                patch.setattr(steprep.StepOperator, "__init__", refuse)
                patch.setattr(FiberVector, "__init__", refuse)
                patch.setattr(algebra, "multiply", refuse)
                patch.setattr(algebra, "normal_form", refuse)
                patch.setattr(steprep, "evaluate", refuse)
                assert verify_annihilation(spec, inst, w) is True
            assert sum(windows) == 34

    def test_check_cost_does_not_follow_dim_w(self, e23, monkeypatch):
        # the same instance, checked with a unit vector of (0,6) and of
        # (0,600): the blocks scale with dim(w) together, so the same
        # window tests decide both, 3^594 times apart
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        block_product = analysis._block_product
        counts = []
        for n in (6, 600):
            w = unit_vector(e23, e23.monomial((0, n), 3 ** (n - 1)))
            windows = []

            def counted(shift, pieces, level_out, level_in):
                windows.append(len(pieces))
                return block_product(shift, pieces, level_out, level_in)

            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_block_product", counted)
                assert verify_annihilation(e23, inst, w) is True
            counts.append(sum(windows))
        assert counts[0] == counts[1] > 0

    def test_construction_steps_keep_support_one(self, e23, tw23, monkeypatch):
        # each computed step meets a support-1 vector, whose constraint is
        # one run: the free column is read off it, with no row reduction.
        # Of the schedule's 27 * 8 steps only those that can move the
        # vector are computed, the state is two integers, so no basis
        # monomials are multiplied, and the one fiber vector is the
        # returned one
        def refuse(*args, **kwargs):
            raise AssertionError(
                "the construction must not reduce a matrix, multiply fiber "
                "vectors or build algebra elements"
            )

        step, mul_basis = analysis._orthogonality_step, SystemSpec.mul_basis
        init = FiberVector.__init__
        for spec in (e23, tw23):
            inst = annihilation_instance(
                spec, [(spec.monomial((3, 0), 0), spec.monomial((0, 3), 0))]
            )
            columns, products, built = [], [], []

            def recorded(*args):
                columns.append(step(*args))
                return columns[-1]

            def multiplied(self, x, y):
                products.append(y)
                return mul_basis(self, x, y)

            def counted(self, *args):
                built.append(args)
                init(self, *args)

            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_orthogonality_step", recorded)
                patch.setattr(SystemSpec, "mul_basis", multiplied)
                for module, name in (
                    (linalg, "nullspace"),
                    (algebra, "multiply"),
                    (algebra, "normal_form"),
                    (SystemSpec, "mul_vectors"),
                ):
                    patch.setattr(module, name, refuse)
                patch.setattr(FiberVector, "__init__", counted)
                w = annihilating_vector(spec, inst)
                assert len(built) == 1 and len(w.entries) == 1
                assert verify_annihilation(spec, inst, w) is True
            assert 1 <= len(columns) <= 4
            assert columns[0] == 1
            assert products == []

    def test_construction_work_follows_moves(self, e23, tw23, monkeypatch):
        # kill e(1,0;0) e(0,1;0) at shift (3,4) schedules 324 * 216 = 69,984
        # steps and reaches a dimension of 175,698 digits; a handful of
        # steps are computed
        step = analysis._orthogonality_step
        for spec in (e23, tw23):
            inst = annihilation_instance(
                spec, [(spec.monomial((1, 0), 0), spec.monomial((0, 1), 0))], (3, 4)
            )
            columns = []

            def recorded(*args):
                columns.append(step(*args))
                return columns[-1]

            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_orthogonality_step", recorded)
                w = annihilating_vector(spec, inst)
            assert 1 <= len(columns) <= 10
            assert w.fiber == (324 * 216 * 2, 324 * 216 * 4)
            assert w.dim == 324 ** (324 * 216)
            assert verify_annihilation(spec, inst, w) is True

    def test_window_oracle_frozen_set(self):
        assert _window_oracle_bad_indices(6) == {0, 1, 727, 728}

    def test_residues_match_window_oracle_deep(self, e23):
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        bad = _window_oracle_bad_indices(6)
        for m in (0, 1, 243, 364, 727):
            w = dense_vector(
                e23,
                (0, 6),
                [e23.field.one if j == m else e23.field.zero for j in range(729)],
            )
            assert verify_annihilation(e23, inst, w) == (m not in bad)

    def test_residues_match_window_oracle_shallow(self, e23):
        # shallow enough to sweep every index
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        bad = _window_oracle_bad_indices(2)
        for m in range(9):
            w = dense_vector(
                e23, (0, 2), [e23.field.one if j == m else e23.field.zero for j in range(9)]
            )
            assert verify_annihilation(e23, inst, w) == (m not in bad)

    def test_twisted_route_returns_booleans(self, tw23):
        inst = annihilation_instance(
            tw23, [(tw23.monomial((1, 0), 0), tw23.monomial((0, 1), 0))]
        )
        w = annihilating_vector(tw23, inst)
        assert verify_annihilation(tw23, inst, w) is True

    def test_every_pair_is_checked(self, e23, tw23):
        # e((0,2);4) kills the first pair but not the second, so the
        # two-pair instance must fail on its second pair
        for spec in (e23, tw23):
            first = (spec.monomial((1, 0), 0), spec.monomial((0, 1), 0))
            second = (spec.identity_monomial, spec.monomial((0, 1), 0))
            w = unit_vector(spec, spec.monomial((0, 2), 4))
            both = annihilation_instance(spec, [first, second], (1, 1))
            for i, expected in enumerate((True, False)):
                alone = annihilation_instance(spec, [both.pairs[i]], (1, 1))
                assert verify_annihilation(spec, alone, w) is expected
                elem = compressed_pair_element(spec, both, w, i)
                assert algebra.normal_form(elem).is_zero() is expected
            assert verify_annihilation(spec, both, w) is False

    def test_vector_element_pairs(self, e23):
        # the vector built for the monomials of a vector's fiber kills the
        # vector's pairs too: the compression of v y* vanishes in the algebra
        v = dense_vector(e23, (1, 0), [e23.field.one, e23.field.one])
        y = e23.monomial((0, 1), 1)
        inst = annihilation_instance(e23, [(e23.monomial((1, 0), 0), y)])
        w = annihilating_vector(e23, inst)
        assert verify_annihilation(e23, inst, w)
        elem = compressed_pair_element(e23, inst, w, 0, members=(v, y))
        assert algebra.normal_form(elem).is_zero()
