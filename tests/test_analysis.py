"""Classification and the compression-annihilation construction."""

import random

import pytest

from cuntzlab import algebra, scalars, steprep
from cuntzlab.analysis import (
    HypothesisViolationError,
    _factorize,
    annihilating_vector,
    annihilation_instance,
    classify,
    common_power_base,
    dimension_injective,
    nonsimplicity_witness,
    prime_exponent_matrix,
    verify_annihilation,
)
from cuntzlab.system import SystemSpec, parse_spec_text

from conftest import compressed_pair_element


class TestPrimeExponents:
    def test_coprime_dims(self):
        primes, rows = prime_exponent_matrix((2, 3))
        assert primes == (2, 3)
        assert rows == ((1, 0), (0, 1))

    def test_power_collision(self):
        primes, rows = prime_exponent_matrix((4, 8))
        assert primes == (2,)
        assert rows == ((2, 3),)

    def test_mixed(self):
        primes, rows = prime_exponent_matrix((12, 18))
        assert primes == (2, 3)
        assert rows == ((2, 1), (1, 2))

    def test_dimension_one(self):
        assert prime_exponent_matrix((1, 5)) == ((5,), ((0, 1),))


class TestFactorize:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        cases = [1, 2, 4, 10**18 + 3, 2**79, 3**50, 41**14]
        cases += [rng.randrange(2, 10**24) for _ in range(12)]
        for _ in range(4):
            # semiprimes and prime powers with factors far past trial division
            p = sympy.nextprime(rng.randrange(10**5, 10**6))
            q = sympy.nextprime(rng.randrange(10**8, 10**12))
            cases += [p * q, p**2 * q, q**2, p**3, sympy.nextprime(rng.randrange(10**23, 10**24))]
        for n in cases:
            assert _factorize(n) == sympy.factorint(n), n

    def test_primes_ascending(self):
        assert list(_factorize(2**3 * 3 * 101**2 * 1000003)) == [2, 3, 101, 1000003]


class TestCommonPowerBase:
    def test_known_values(self):
        assert common_power_base(4, 8) == (2, 2, 3)
        assert common_power_base(16, 64) == (4, 2, 3)
        assert common_power_base(6, 36) == (6, 1, 2)
        assert common_power_base(8, 8) == (8, 1, 1)

    def test_no_common_base(self):
        assert common_power_base(2, 3) is None
        assert common_power_base(12, 18) is None
        assert common_power_base(4, 6) is None
        assert common_power_base(1, 5) is None


class TestDimensionInjective:
    def test_injective(self, e23):
        ok, witness = dimension_injective(e23)
        assert ok and witness is None
        assert dimension_injective(SystemSpec((12, 18)))[0]

    def test_collision_witness(self, e24):
        ok, (s, t) = dimension_injective(e24)
        assert not ok
        assert s == (2, 0) and t == (0, 1)
        assert e24.dim(s) == e24.dim(t)

    def test_dimension_one_generator(self):
        spec = SystemSpec((1, 5))
        ok, (s, t) = dimension_injective(spec)
        assert not ok
        assert spec.dim(s) == spec.dim(t) == 1
        assert s != t

    def test_three_generators(self):
        spec = SystemSpec((2, 4, 3))
        ok, (s, t) = dimension_injective(spec)
        assert not ok
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
        assert not w.is_zero()
        assert verify_annihilation(e23, inst, w)
        # the compressed element vanishes in the algebra itself, not just
        # in the distinguished representation
        elem = compressed_pair_element(e23, inst, w, 0)
        assert algebra.normal_form(elem).is_zero()

    def test_window_oracle_frozen_set(self):
        assert _window_oracle_bad_indices(6) == {0, 1, 727, 728}

    def test_residues_match_window_oracle_deep(self, e23):
        inst = annihilation_instance(
            e23, [(e23.monomial((1, 0), 0), e23.monomial((0, 1), 0))]
        )
        bad = _window_oracle_bad_indices(6)
        for m in (0, 1, 243, 364, 727):
            w = e23.vector(
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
            w = e23.vector(
                (0, 2), [e23.field.one if j == m else e23.field.zero for j in range(9)]
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
            w = spec.unit_vector(spec.monomial((0, 2), 4))
            both = annihilation_instance(spec, [first, second], (1, 1))
            for i, expected in enumerate((True, False)):
                alone = annihilation_instance(spec, [both.pairs[i]], (1, 1))
                assert verify_annihilation(spec, alone, w) is expected
                elem = compressed_pair_element(spec, both, w, i)
                assert algebra.normal_form(elem).is_zero() is expected
            assert verify_annihilation(spec, both, w) is False

    def test_vector_element_pairs(self, e23):
        # pairs may mix monomials with fiber vectors
        v = e23.vector((1, 0), [e23.field.one, e23.field.one])
        inst = annihilation_instance(e23, [(v, e23.monomial((0, 1), 1))])
        w = annihilating_vector(e23, inst)
        assert verify_annihilation(e23, inst, w)
