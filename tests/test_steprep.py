"""The step-function model: exact sparse operators on refinement levels."""

import pytest

from cuntzlab import algebra, steprep
from cuntzlab.algebra import AlgebraElement
from cuntzlab.scalars import (
    RATIONAL,
    FloatComplex,
    RationalComplex,
    common_field,
    cyclotomic_field,
    field_of,
)
from cuntzlab.steprep import (
    CharacterTwist,
    LevelError,
    OperatorFamily,
    StepOperator,
    UnsupportedRepresentationError,
    evaluate,
    evaluate_twisted,
    generator_operator,
    minimal_level,
    vector_operator,
)
from cuntzlab.system import sub_degree

from conftest import dense_vector, inner, random_element


def _identity_op(spec, level):
    return generator_operator(spec, spec.identity_monomial, level)


class TestGeneratorOperator:
    def test_stripe_entries(self, e23):
        op = generator_operator(e23, e23.monomial((1, 0), 1), 3)
        assert op.level_in == 3 and op.level_out == 6
        assert op.entries == {(3 + u, u): RATIONAL.one for u in range(3)}

    def test_isometry(self, e23):
        for level in (1, 2, 6):
            op = generator_operator(e23, e23.monomial((0, 1), 2), level)
            assert op.conj_transpose().compose(op).equal(_identity_op(e23, level))

    def test_range_projections_sum_to_identity(self, e23):
        level = 4
        fiber = (1, 1)
        acc = {}
        for x in e23.basis(fiber):
            op = generator_operator(e23, x, level)
            for k, v in op.compose(op.conj_transpose()).entries.items():
                acc[k] = acc.get(k, RATIONAL.zero) + v
        acc = {k: v for k, v in acc.items() if not v.is_zero()}
        assert acc == _identity_op(e23, level * e23.dim(fiber)).entries

    def test_product_homomorphism(self, e23):
        x = e23.monomial((1, 0), 0)
        y = e23.monomial((0, 1), 2)
        _, xy = e23.mul_basis(x, y)
        level = 5
        sy = generator_operator(e23, y, level)
        sx = generator_operator(e23, x, level * 3)
        assert sx.compose(sy).equal(generator_operator(e23, xy, level))

    def test_twisted_rejected(self, tw23):
        with pytest.raises(UnsupportedRepresentationError):
            generator_operator(tw23, tw23.monomial((1, 0), 0), 2)

    def test_refusals(self, e23):
        x = e23.monomial((1, 0), 1)
        v = dense_vector(e23, (1, 0), [RationalComplex(1), RationalComplex(2)])
        # a level is exactly an int: 2.5 would make the run (2.5, 0, 2.5, 1)
        for level in (0, 2.0, 2.5, True):
            for build in (generator_operator, vector_operator):
                with pytest.raises(ValueError, match="^levels are positive integers$"):
                    build(e23, x if build is generator_operator else v, level)
        op = generator_operator(e23, x, 3)
        with pytest.raises(ValueError, match=r"^cannot compose: inner levels differ \(6 vs 3\)$"):
            op.compose(op)


class TestOperatorFamily:
    def test_equal_needs_one_base_level(self):
        assert OperatorFamily(2, {}).equal(OperatorFamily(2, {}))
        assert not OperatorFamily(2, {}).equal(OperatorFamily(4, {}))

    def test_equal_across_different_level_sets(self):
        # a level that one family lacks must hold a zero block in the other
        one = RATIONAL.one
        shared = {2: StepOperator(2, 2, {(0, 0): one})}
        with_zero = OperatorFamily(2, {**shared, 4: StepOperator(2, 4, {})})
        with_nonzero = OperatorFamily(2, {**shared, 4: StepOperator(2, 4, {(1, 0): one})})
        plain = OperatorFamily(2, shared)
        assert with_zero.equal(plain) and plain.equal(with_zero)
        assert not with_nonzero.equal(plain) and not plain.equal(with_nonzero)
        other = OperatorFamily(2, {2: StepOperator(2, 2, {(1, 1): one})})
        assert not other.equal(plain)

    def test_single(self, e23):
        zero = OperatorFamily(3, {6: StepOperator(3, 6, {})}).single()
        assert zero.is_zero() and (zero.level_in, zero.level_out) == (3, 3)
        a = algebra.isometry(e23, e23.monomial((1, 0), 0)) + algebra.identity(e23)
        with pytest.raises(
            ValueError, match="^element evaluates to blocks at several output levels: 1, 2$"
        ):
            evaluate(a, 1).single()


class TestVectorOperator:
    def test_matches_basis_expansion(self, e23):
        v = dense_vector(e23, (1, 0), [RationalComplex(2), RationalComplex(0, 1)])
        level = 3
        direct = vector_operator(e23, v, level)
        acc = {}
        for idx, c in enumerate(v.coeffs):
            op = generator_operator(e23, e23.monomial((1, 0), idx), level)
            for k, val in op.entries.items():
                acc[k] = acc.get(k, RATIONAL.zero) + c * val
        assert direct.entries == {k: v for k, v in acc.items() if not v.is_zero()}

    def test_isometry_up_to_norm(self, e23):
        v = dense_vector(e23, (1, 0), [RationalComplex(1), RationalComplex(1, 1)])
        op = vector_operator(e23, v, 4)
        gram = op.conj_transpose().compose(op)
        norm = inner(e23, v, v)
        expected = {(j, j): norm for j in range(4)}
        assert gram.entries == expected


class TestEvaluate:
    def test_minimal_level(self, e23):
        a = algebra.monomial_pair(
            e23, e23.monomial((1, 0), 0), e23.monomial((1, 0), 1)
        ) + algebra.monomial_pair(e23, e23.monomial((0, 1), 0), e23.monomial((0, 1), 1))
        assert minimal_level(a) == 6
        assert minimal_level(algebra.identity(e23)) == 1

    def test_level_error(self, e23):
        a = algebra.isometry(e23, e23.monomial((0, 1), 0)).adjoint()
        with pytest.raises(LevelError) as exc:
            evaluate(a, 4)
        assert exc.value.minimal == 3
        assert "not divisible by 3" in str(exc.value)
        # a level is exactly an int: 3.0 and 6.0 are multiples of 3 that
        # would key the family by float levels, and True would pass as 1
        for bad in (0, -3, 2.0, 2.5, True, 3.0, 6.0):
            with pytest.raises(LevelError) as exc:
                evaluate(a, bad)
            assert exc.value.minimal == 3
            assert str(exc.value) == f"base level must be a positive integer, got {bad}"
        # the minimal level of an isometry is 1, so every level divides it
        s = algebra.isometry(e23, e23.monomial((1, 0), 1))
        for bad in (2.0, 2.5, True):
            with pytest.raises(LevelError) as exc:
                evaluate(s, bad)
            assert str(exc.value) == f"base level must be a positive integer, got {bad}"
        assert evaluate(s, 2).base_level == 2

    def test_given_level_skips_minimal_level(self, e23, monkeypatch):
        # a given level is checked per right fiber as the terms are placed;
        # the minimal level is walked for only to name a refusal
        calls = []
        walk = steprep.minimal_level
        monkeypatch.setattr(steprep, "minimal_level", lambda a: calls.append(a) or walk(a))
        terms = [(RATIONAL.one, x, x) for x in e23.basis((1, 1))]
        a = AlgebraElement.from_terms(e23, terms) - algebra.identity(e23)
        assert evaluate(a, 12).is_zero()
        assert calls == []
        assert evaluate(a).is_zero()
        assert calls == [a]
        with pytest.raises(LevelError) as exc:
            evaluate(a, 4)
        assert str(exc.value) == (
            "base level 4 is not divisible by 6; the minimal valid base level is 6"
        )
        assert calls == [a, a]

    def test_homomorphism_on_samples(self, e23, rng):
        for _ in range(8):
            a = random_element(e23, rng, nterms=2)
            b = random_element(e23, rng, nterms=2)
            prod = algebra.multiply(a, b)
            # every output level of b must be a valid base level for a
            mb = minimal_level(b)
            level = minimal_level(a) * mb * mb
            fam_prod = evaluate(prod, level)
            # single-degree pieces compose; compare total block maps instead
            blocks = {}
            fam_b = evaluate(b, level)
            for lv_mid, op_b in fam_b.blocks.items():
                fam_a = evaluate(a, lv_mid)
                for lv_out, op_a in fam_a.blocks.items():
                    cur = blocks.get(lv_out)
                    comp = op_a.compose(op_b)
                    blocks[lv_out] = comp if cur is None else StepOperator(
                        level, lv_out, _merge(cur.entries, comp.entries)
                    )
            for lv, op in fam_prod.blocks.items():
                other = blocks.get(lv)
                if other is None:
                    assert op.is_zero()
                else:
                    assert op.equal(other)
            for lv, op in blocks.items():
                if lv not in fam_prod.blocks:
                    assert op.is_zero()

    def test_adjoint_is_conj_transpose(self, e23, rng):
        from conftest import random_coeff, random_monomial

        for _ in range(10):
            x = random_monomial(e23, rng)
            y = random_monomial(e23, rng)
            coeff = random_coeff(e23, rng)
            if coeff.is_zero():
                continue
            a = algebra.monomial_pair(e23, x, y, coeff)
            level = e23.dim(x.fiber) * e23.dim(y.fiber)
            op = evaluate(a, level).single()
            star = evaluate(a.adjoint(), op.level_out).single()
            assert star.equal(op.conj_transpose())

    def test_faithful_on_witness_free_spec(self, e23):
        # cuntz sum minus identity evaluates to nothing at every level
        acc = algebra.zero(e23)
        for x in e23.basis((0, 1)):
            s = algebra.isometry(e23, x)
            acc = acc + algebra.multiply(s, s.adjoint())
        diff = acc - algebra.identity(e23)
        for level in (3, 6, 9):
            assert evaluate(diff, level).is_zero()

    def test_collision_blind_spot(self, e24):
        # the distinguished model cannot see the dimension collision
        a = algebra.isometry(e24, e24.monomial((2, 0), 0)) - algebra.isometry(
            e24, e24.monomial((0, 1), 0)
        )
        for level in (4, 8, 16):
            assert evaluate(a, level).is_zero()
        assert algebra.normal_form(a).pairs


class TestLevelIndependence:
    def test_zero_test_at_a_huge_level(self, e23):
        # one run per term: the fiber-(4,4) Cuntz sum minus I is decided at
        # 10^30 times its minimal level, where a stripe has 10^30 cells
        basis = e23.basis((4, 4))
        one, e = e23.field.one, e23.identity_monomial
        triples = [(one, x, x) for x in basis] + [(-one, e, e)]
        diff = AlgebraElement.from_terms(e23, triples)
        delta = RationalComplex(1, 1)
        perturbed = AlgebraElement.from_terms(e23, triples + [(delta, basis[77], basis[77])])
        level = minimal_level(diff) * 10**30
        assert evaluate(diff, level).is_zero()
        family = evaluate(perturbed, level)
        assert not family.is_zero()
        (op,) = family.blocks.values()
        stripe = level // len(basis)
        assert op.runs == ((77 * stripe, 77 * stripe, stripe, delta),)


def _merge(x, y):
    out = dict(x)
    for k, v in y.items():
        cur = out.get(k)
        out[k] = v if cur is None else cur + v
    return {k: v for k, v in out.items() if not v.is_zero()}


class TestCharacterTwist:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            CharacterTwist([RationalComplex(2)])
        with pytest.raises(ValueError):
            CharacterTwist([])

    def test_phase(self):
        tw = CharacterTwist([RationalComplex(0, 1), RationalComplex(-1)])
        assert tw.phase((2, 0)) == RationalComplex(-1)
        assert tw.phase((0, 2)) == RationalComplex(1)
        assert tw.phase((-1, 0)) == RationalComplex(0, -1)
        assert tw.phase((0, 0)).is_one()

    def test_repr(self):
        tw = CharacterTwist([RationalComplex(0, 1), RationalComplex(-1)])
        assert repr(tw) == "CharacterTwist([RationalComplex(0, 1), RationalComplex(-1, 0)])"

    def test_twisted_evaluation_separates_witness(self, e24):
        a = algebra.isometry(e24, e24.monomial((2, 0), 0)) - algebra.isometry(
            e24, e24.monomial((0, 1), 0)
        )
        tw = CharacterTwist([RationalComplex(0, 1), RationalComplex(1)])
        assert evaluate(a, 4).is_zero()
        assert not evaluate_twisted(a, tw, 4).is_zero()

    def test_trivial_character_matches_plain(self, e23, rng):
        tw = CharacterTwist([RationalComplex(1), RationalComplex(1)])
        a = random_element(e23, rng, nterms=3)
        level = minimal_level(a)
        assert evaluate_twisted(a, tw, level).equal(evaluate(a, level))

    def test_character_length_checked(self, e23):
        a = algebra.identity(e23)
        with pytest.raises(ValueError):
            evaluate_twisted(a, CharacterTwist([RationalComplex(1)]), 1)

    def test_gauge_invariant_part_unchanged(self, e23, rng):
        a = algebra.gauge_expectation(random_element(e23, rng, nterms=4))
        tw = CharacterTwist([RationalComplex(0, -1), RationalComplex(-1)])
        level = minimal_level(a)
        assert evaluate_twisted(a, tw, level).equal(evaluate(a, level))

    def test_exact_family_equals_its_float_coerced_copy(self, e23):
        # at level 6 the two terms raise to the adjacent runs [0, 3) and
        # [3, 4) of one block, merged into one run on both fields
        x, y = e23.monomial((1, 0), 0), e23.monomial((1, 1), 3)
        a = algebra.AlgebraElement.from_terms(e23, [(1, x, x), (1, y, y)])
        tw = CharacterTwist([FloatComplex(1.0), FloatComplex(1.0)])
        exact, coerced = evaluate(a, 6), evaluate_twisted(a, tw, 6)
        assert len(exact.blocks[6].runs) == 1 == len(coerced.blocks[6].runs)
        assert exact.equal(coerced) and coerced.equal(exact)
        assert exact.blocks[6].equal(coerced.blocks[6])
        assert coerced.blocks[6].equal(exact.blocks[6])
        other = evaluate_twisted(a.scaled(2), tw, 6)
        assert not exact.equal(other) and not other.equal(exact)

    def test_families_of_two_exact_fields_compare_in_their_common_field(self, e23):
        x = e23.monomial((1, 0), 0)
        a = algebra.AlgebraElement.from_terms(e23, [(RationalComplex(0, 1), x, x)])
        k12 = cyclotomic_field(12)
        tw = CharacterTwist([cyclotomic_field(3).one, k12.one])
        plain, lifted = evaluate(a, 2), evaluate_twisted(a, tw, 2)
        assert field_of(lifted.blocks[2].runs[0][3]) is k12
        assert plain.equal(lifted) and lifted.equal(plain)
        assert not plain.equal(evaluate_twisted(a.scaled(2), tw, 2))

    def test_gaussian_coefficient_under_a_character_without_i(self, e23):
        # the entries live in Q(zeta_12), which holds both i and zeta_3
        k3, k12 = cyclotomic_field(3), cyclotomic_field(12)
        a = algebra.identity(e23).scaled(RationalComplex(0, 1))
        family = evaluate(a, twist=CharacterTwist([k3.zeta_power(1), k3.one]))
        assert family.blocks[1].entries == {(0, 0): k12.zeta_power(3)}

    def test_twisted_spec_rejected(self, tw23):
        tw = CharacterTwist([RationalComplex(0, 1), RationalComplex(1)])
        a = algebra.identity(tw23)
        with pytest.raises(UnsupportedRepresentationError):
            evaluate(a, twist=tw)
        with pytest.raises(UnsupportedRepresentationError):
            evaluate_twisted(a, tw)

    def test_matches_termwise_phases(self, e23, rng):
        k8 = cyclotomic_field(8)
        characters = [
            CharacterTwist([RationalComplex(-1), RationalComplex(1)]),
            CharacterTwist([RationalComplex(0, 1), RationalComplex(0, -1)]),
            CharacterTwist([k8.zeta_power(1), k8.zeta_power(3)]),
        ]
        for _ in range(5):
            a = random_element(e23, rng, nterms=4)
            for mult in (1, 2, 6):
                level = minimal_level(a) * mult
                for tw in characters:
                    assert evaluate(a, level, twist=tw).equal(_termwise(a, level, tw))


def _termwise(a, level, twist):
    """The twisted evaluation as a blockwise sum of phase(deg t) * evaluate(t)."""
    field = a.spec.field
    for v in twist.values:
        field = common_field(field, field_of(v))
    blocks = {}
    for t in a.terms:
        single = AlgebraElement.from_terms(a.spec, [t])
        phase = field.coerce(twist.phase(sub_degree(t.left.fiber, t.right.fiber)))
        for lv, op in evaluate(single, level).blocks.items():
            acc = blocks.setdefault(lv, {})
            for key, v in op.entries.items():
                v = phase * field.coerce(v)
                acc[key] = v if key not in acc else acc[key] + v
    return OperatorFamily(
        level, {lv: StepOperator(level, lv, e) for lv, e in blocks.items()}
    )
