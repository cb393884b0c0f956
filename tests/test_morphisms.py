"""Generator assignments, induced maps, and the factorization isomorphisms."""

from fractions import Fraction

import pytest

from cuntzlab import algebra
from cuntzlab.morphisms import (
    GeneratorAssignment,
    IsomorphismPair,
    canonical_assignment,
    check_relations,
    extend,
    factor_iso,
    map_element,
    parse_assignment,
    verify_roundtrip,
)
from cuntzlab.system import ConfigurationError, SystemSpec

from conftest import format_assignment, random_element, random_monomial


def _swap_images(assignment, key_a, key_b):
    images = {
        (a, i): assignment.image(a, i)
        for a in range(1, assignment.source.k + 1)
        for i in range(assignment.source.gen_dims[a - 1])
    }
    images[key_a], images[key_b] = images[key_b], images[key_a]
    return GeneratorAssignment(assignment.source, assignment.target, images)


class TestRelationChecking:
    def test_canonical_assignment_verifies(self, e23):
        assignment = canonical_assignment(e23)
        report = assignment.report()
        assert report.ok
        # per slot: isometry+orthogonality pairs, one range sum, then the
        # cross-slot commutation instances
        assert report.checked == (4 + 1) + (9 + 1) + 6
        assert report.violations == ()

    def test_missing_image_rejected(self, e23):
        images = {(1, 0): algebra.isometry(e23, e23.monomial((1, 0), 0))}
        with pytest.raises(ConfigurationError):
            GeneratorAssignment(e23, e23, images)

    def test_extra_image_rejected(self, e23):
        assignment = canonical_assignment(e23)
        images = {
            (a, i): assignment.image(a, i)
            for a in range(1, 3)
            for i in range(e23.gen_dims[a - 1])
        }
        images[(3, 0)] = assignment.image(1, 0)
        with pytest.raises(ConfigurationError):
            GeneratorAssignment(e23, assignment.target, images)

    def test_duplicate_image_violates_orthogonality(self, e23):
        assignment = canonical_assignment(e23)
        images = {
            (a, i): assignment.image(a, i)
            for a in range(1, 3)
            for i in range(e23.gen_dims[a - 1])
        }
        images[(2, 1)] = images[(2, 0)]
        broken = GeneratorAssignment(e23, assignment.target, images)
        report = broken.report()
        assert not report.ok
        assert any("orthogonality" in v for v in report.violations)
        with pytest.raises(ValueError):
            extend(e23, broken, e23.monomial((0, 1), 0))

    @staticmethod
    def _count_products(monkeypatch):
        multiply = algebra.multiply
        calls = []

        def counted(a, b):
            calls.append(None)
            return multiply(a, b)

        monkeypatch.setattr(algebra, "multiply", counted)
        return calls

    def test_monomial_families_make_no_products(self, monkeypatch):
        # every forward image of factor_iso(8, 8) is one monomial isometry,
        # so its slots and slot pair are decided by index arithmetic; the
        # backward second slot is one run per image, not a monomial family:
        # it costs d isometry products and d range-sum products, and its
        # pair with the first slot two products per commutation instance
        pair = factor_iso(8, 8)
        calls = self._count_products(monkeypatch)
        for assignment, (d_1, d_2), products in (
            (pair.forward, (8, 64), 0),
            (pair.backward, (8, 8), 2 * 8 + 2 * 8 * 8),
        ):
            calls.clear()
            report = check_relations(assignment.source, assignment)
            assert report.ok
            assert report.checked == d_1 * d_1 + 1 + d_2 * d_2 + 1 + d_1 * d_2
            assert len(calls) == products

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec((2, 3)),
            SystemSpec((2, 1, 2)),
            SystemSpec((1, 4)),
            SystemSpec((2, 3), theta=[[0, Fraction(1, 4)], [0, 0]], scalar_mode="cyclotomic:4"),
        ],
        ids=repr,
    )
    def test_canonical_assignments_make_no_products(self, spec, monkeypatch):
        # slots of one image included, whose index slope is free
        assignment = canonical_assignment(spec)
        calls = self._count_products(monkeypatch)
        assert check_relations(spec, assignment).ok
        assert calls == []

    @pytest.mark.parametrize("m", [4, 32])
    def test_forward_relations_products_do_not_grow(self, m, monkeypatch):
        # the m^3 commutation instances of the forward assignment make no
        # product at any m
        forward = factor_iso(m, m).forward
        calls = self._count_products(monkeypatch)
        report = check_relations(forward.source, forward)
        assert report.ok
        assert report.checked == m * m + 1 + m**4 + 1 + m**3
        assert calls == []

    def test_unit_commutation_ratio_scales_nothing(self, e23, tw23, monkeypatch):
        # an untwisted source's exact ratio is the field's one, so no
        # commutation instance scales its right side; on a twisted source
        # each of the d_1 d_2 instances does.  The canonical images are
        # monomial families, decided without a product or a scaling, so the
        # products are forced by writing each image i(x) as the one run
        # i(x) sum_f i(f) i(f)' over the basis of fiber (1, 0)
        scaled = algebra.AlgebraElement.scaled
        calls = []

        def counted(element, coeff):
            calls.append(coeff)
            return scaled(element, coeff)

        monkeypatch.setattr(algebra.AlgebraElement, "scaled", counted)
        for spec, count in ((e23, 0), (tw23, 6)):
            canonical = canonical_assignment(spec)
            cuntz = algebra.zero(spec)
            for f in spec.basis((1, 0)):
                u = algebra.isometry(spec, f)
                cuntz = cuntz + algebra.multiply(u, u.adjoint())
            raised = GeneratorAssignment(
                spec,
                spec,
                {key: algebra.multiply(u, cuntz) for key, u in canonical.images.items()},
            )
            for assignment, expected in ((canonical, 0), (raised, count)):
                calls.clear()
                report = check_relations(spec, assignment)
                assert report.ok and report.checked == 21
                assert len(calls) == expected

    def test_commutation_pairing(self, e23):
        # U(1,i) U(2,j) must equal U(2,p) U(1,q) with (p,q) = divmod(i*3+j, 2)
        assignment = canonical_assignment(e23)
        u = assignment.image(1, 1)
        w = assignment.image(2, 1)
        p, q = divmod(1 * 3 + 1, 2)
        rhs = algebra.multiply(assignment.image(2, p), assignment.image(1, q))
        assert algebra.equals(algebra.multiply(u, w), rhs)


class TestExtend:
    def test_fixes_generators(self, e23):
        assignment = canonical_assignment(e23)
        for slot in (0, 1):
            fiber = e23.unit_fiber(slot)
            for i in range(e23.dim(fiber)):
                x = e23.monomial(fiber, i)
                assert algebra.equals(
                    extend(e23, assignment, x), algebra.isometry(e23, x)
                )

    def test_order_independent(self, e23):
        assignment = canonical_assignment(e23)
        for fiber in [(1, 1), (2, 1), (1, 2)]:
            for i in range(e23.dim(fiber)):
                x = e23.monomial(fiber, i)
                a = extend(e23, assignment, x, order=(1, 2))
                b = extend(e23, assignment, x, order=(2, 1))
                assert algebra.equals(a, b)

    def test_multiplicative(self, e23, rng):
        assignment = canonical_assignment(e23)
        for _ in range(10):
            x = random_monomial(e23, rng)
            y = random_monomial(e23, rng)
            _, xy = e23.mul_basis(x, y)
            lhs = algebra.multiply(
                extend(e23, assignment, x), extend(e23, assignment, y)
            )
            assert algebra.equals(lhs, extend(e23, assignment, xy))

    def test_twisted_extension_fixes_generators(self, tw23):
        assignment = canonical_assignment(tw23)
        for fiber in [(1, 1), (2, 0), (0, 2), (2, 1)]:
            for i in range(tw23.dim(fiber)):
                x = tw23.monomial(fiber, i)
                expected = algebra.isometry(tw23, x)
                for order in ((1, 2), (2, 1)):
                    assert algebra.equals(
                        extend(tw23, assignment, x, order=order), expected
                    )

    def test_twisted_multiplicative_with_phase(self, tw23, rng):
        assignment = canonical_assignment(tw23)
        for _ in range(8):
            x = random_monomial(tw23, rng)
            y = random_monomial(tw23, rng)
            phase, xy = tw23.mul_basis(x, y)
            lhs = algebra.multiply(
                extend(tw23, assignment, x), extend(tw23, assignment, y)
            )
            rhs = extend(tw23, assignment, xy).scaled(phase)
            assert algebra.equals(lhs, rhs)

    def test_three_generator_orders(self, rng):
        spec = SystemSpec((2, 4, 3))
        assignment = canonical_assignment(spec)
        orders = [(1, 2, 3), (3, 2, 1), (2, 3, 1)]
        for _ in range(5):
            x = random_monomial(spec, rng, max_sum=2)
            images = [extend(spec, assignment, x, order=o) for o in orders]
            for other in images[1:]:
                assert algebra.equals(images[0], other)

    def test_monomial_of_another_spec_rejected(self, e23, e24, tw23):
        assignment = canonical_assignment(e23)
        for other in (e24, tw23):
            x = other.monomial((1, 0), 0)
            with pytest.raises(ValueError, match="does not belong to the assignment's source"):
                extend(other, assignment, x)

    def test_bad_order_rejected(self, e23):
        assignment = canonical_assignment(e23)
        x = e23.monomial((1, 1), 0)
        with pytest.raises(ValueError):
            extend(e23, assignment, x, order=(1, 1))
        with pytest.raises(ValueError):
            extend(e23, assignment, x, order=(0, 1))


class TestMapElement:
    def test_star_homomorphism(self, e23, rng):
        assignment = canonical_assignment(e23)
        for _ in range(6):
            a = random_element(e23, rng, nterms=2)
            b = random_element(e23, rng, nterms=2)
            assert algebra.equals(
                map_element(assignment, algebra.multiply(a, b)),
                algebra.multiply(map_element(assignment, a), map_element(assignment, b)),
            )
            assert algebra.equals(
                map_element(assignment, a.adjoint()),
                map_element(assignment, a).adjoint(),
            )

    def test_element_of_another_spec_rejected(self, e23, e24, tw23):
        assignment = canonical_assignment(e23)
        for other in (e24, tw23):
            with pytest.raises(ValueError, match="does not belong to the assignment's source"):
                map_element(assignment, algebra.identity(other))

    def test_identity_on_canonical(self, e23, rng):
        assignment = canonical_assignment(e23)
        a = random_element(e23, rng, nterms=3)
        assert algebra.equals(map_element(assignment, a), a)


class TestFactorIso:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
    def test_roundtrip(self, m, n):
        assert verify_roundtrip(factor_iso(m, n))

    def test_backward_image_golden(self):
        pair = factor_iso(2, 3)
        big = pair.forward.source
        expected = algebra.multiply(
            algebra.isometry(big, big.monomial((0, 1), 0)),
            algebra.isometry(big, big.monomial((1, 0), 0)).adjoint(),
        ) + algebra.multiply(
            algebra.isometry(big, big.monomial((0, 1), 1)),
            algebra.isometry(big, big.monomial((1, 0), 1)).adjoint(),
        )
        assert algebra.equals(pair.backward.image(2, 0), expected)

    def test_forward_image_golden(self):
        pair = factor_iso(2, 3)
        small = pair.backward.source
        assert algebra.equals(
            pair.forward.image(2, 4), algebra.isometry(small, small.monomial((1, 1), 4))
        )

    def test_forward_images_generate(self):
        # the small system's second-slot generators are recovered from
        # forward images: e((0,1);r) = psi(V1_i)* psi(V2_(3i+r))
        pair = factor_iso(2, 3)
        small = pair.backward.source
        for r in range(3):
            for i in range(2):
                candidate = algebra.multiply(
                    pair.forward.image(1, i).adjoint(),
                    pair.forward.image(2, 3 * i + r),
                )
                assert algebra.equals(
                    candidate, algebra.isometry(small, small.monomial((0, 1), r))
                )
        mismatched = algebra.multiply(
            pair.forward.image(1, 0).adjoint(), pair.forward.image(2, 3)
        )
        assert algebra.equals(mismatched, algebra.zero(small))

    def test_corrupted_swap_fails(self):
        pair = factor_iso(2, 3)
        bad = _swap_images(pair.backward, (2, 0), (2, 1))
        report = bad.report()
        assert not report.ok
        assert any("commutation" in v for v in report.violations)
        assert not verify_roundtrip(IsomorphismPair(pair.forward, bad))

    def test_negated_images_keep_relations_but_fail_roundtrip(self):
        # -V satisfies every relation V does, so both reports pass and only
        # the composition finds that the backward map does not undo it
        pair = factor_iso(2, 3)
        fwd = pair.forward
        images = {
            (a, i): -fwd.image(a, i) if a == 2 else fwd.image(a, i)
            for a in (1, 2)
            for i in range(fwd.source.gen_dims[a - 1])
        }
        negated = GeneratorAssignment(fwd.source, fwd.target, images)
        assert negated.report().ok and pair.backward.report().ok
        assert not verify_roundtrip(IsomorphismPair(negated, pair.backward))

    def test_degenerate_m1(self):
        pair = factor_iso(1, 4)
        assert verify_roundtrip(pair)
        small = pair.backward.source
        # the single first-slot isometry is unitary, so its image times its
        # adjoint is the identity
        u = pair.forward.image(1, 0)
        assert algebra.equals(
            algebra.multiply(u, u.adjoint()), algebra.identity(small)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            factor_iso(0, 3)


class TestSerialization:
    def test_format_golden(self, e23):
        text = format_assignment(canonical_assignment(e23))
        lines = text.splitlines()
        assert lines[0] == "(1,0) = e(1,0;0)"
        assert lines[-1] == "(2,2) = e(0,1;2)"
        assert len(lines) == 5

    def test_round_trip(self, e23):
        pair = factor_iso(2, 3)
        text = format_assignment(pair.backward)
        parsed = parse_assignment(
            pair.backward.source, pair.backward.target, text
        )
        for a in (1, 2):
            for i in range(pair.backward.source.gen_dims[a - 1]):
                assert algebra.equals(parsed.image(a, i), pair.backward.image(a, i))
        assert parsed.report().ok

    def test_parse_errors(self, e23):
        with pytest.raises(ConfigurationError) as exc:
            parse_assignment(e23, e23, "(1,0) = e(1,0;0)\n(1,0) = e(1,0;1)\n")
        assert "duplicate" in str(exc.value)
        with pytest.raises(ConfigurationError):
            parse_assignment(e23, e23, "1,0 = e(1,0;0)\n")
        with pytest.raises(ConfigurationError):
            parse_assignment(e23, e23, "(1,0) e(1,0;0)\n")

    def test_comments_ignored(self, e23):
        lines = format_assignment(canonical_assignment(e23)).splitlines()
        lines[0] += "  # first image"
        commented = "# canonical\n\n" + "\n".join(lines) + "\n"
        parsed = parse_assignment(e23, e23, commented)
        assert parsed.report().ok


class TestCrossSystemAssignments:
    def test_relations_checked_against_other_system(self):
        # the backward map of factor_iso(2,3), written as text, verifies
        # against the big system
        pair = factor_iso(2, 3)
        small, big = pair.backward.source, pair.forward.source
        text = format_assignment(pair.backward)
        parsed = parse_assignment(small, big, text)
        report = parsed.report()
        assert report.ok
        assert report.checked == 21

    def test_mapped_relations_survive(self, e23, rng):
        # images of Cuntz sums are Cuntz sums
        assignment = canonical_assignment(e23)
        acc = algebra.zero(e23)
        for x in e23.basis((1, 1)):
            s = extend(e23, assignment, x)
            acc = acc + algebra.multiply(s, s.adjoint())
        assert algebra.equals(acc, algebra.identity(e23))
